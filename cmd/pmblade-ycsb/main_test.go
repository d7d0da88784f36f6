package main

import (
	"testing"

	"pmblade/internal/ycsb"
)

// mapStore is an in-memory store that counts read hits.
type mapStore struct {
	kv          map[string][]byte
	reads, hits int
}

func (s *mapStore) Put(k, v []byte) error { s.kv[string(k)] = v; return nil }
func (s *mapStore) Get(k []byte) ([]byte, bool, error) {
	v, ok := s.kv[string(k)]
	s.reads++
	if ok {
		s.hits++
	}
	return v, ok, nil
}
func (s *mapStore) ScanN([]byte, int) error { return nil }

// TestLoadThenReadsHit: the load phase writes the keys workloads A–F read,
// so every workload C read after a load finds its key.
func TestLoadThenReadsHit(t *testing.T) {
	const records, ops = 2000, 1000
	st := &mapStore{kv: map[string][]byte{}}
	for _, name := range []string{"load", "c"} {
		w, count, err := newPhase(name, records, ops, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count; i++ {
			if err := runOp(st, w.Next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(st.kv) != records {
		t.Fatalf("load wrote %d keys, want %d", len(st.kv), records)
	}
	if _, ok := st.kv[string(ycsb.KeyAt(0))]; !ok {
		t.Fatalf("load did not write %s", ycsb.KeyAt(0))
	}
	if st.reads != ops || st.hits != ops {
		t.Fatalf("workload c: %d of %d reads hit, want all", st.hits, st.reads)
	}
}
