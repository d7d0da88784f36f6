package engine

import (
	"errors"
	"fmt"
	"testing"

	"pmblade/internal/fault"
	"pmblade/internal/ssd"
)

// walkBoundaries splits key-00000..key-00999 into four partitions of 250.
var walkBoundaries = [][]byte{[]byte("key-00250"), []byte("key-00500"), []byte("key-00750")}

// openWalkDB builds a four-partition store whose partition 0 and partition 2
// end in a run of tombstones (key-00200..00249, key-00700..00749), so a
// bounded scan starting near those tails must walk on into the next
// partition. It returns a snapshot taken before a round of overwrites and
// deletes that stay in the memtable; the caller closes both.
func openWalkDB(t *testing.T, disableIndex bool) (*DB, *Snapshot) {
	t.Helper()
	cfg := fastConfig()
	cfg.PartitionBoundaries = walkBoundaries
	cfg.DisableRangeIndex = disableIndex
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	put := func(i int, v string) {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("%s-%05d", v, i))); err != nil {
			t.Fatal(err)
		}
	}
	del := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := db.Delete([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		put(i, "v1")
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Stable sorted sources in every partition, so the index path has views.
	if err := db.MajorCompactAll(); err != nil {
		t.Fatal(err)
	}
	del(200, 250)
	del(700, 750)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i += 3 {
		if (i >= 200 && i < 250) || (i >= 700 && i < 750) {
			continue // keep the tombstoned tails dead
		}
		put(i, "v2")
	}
	del(490, 500)
	return db, snap
}

// iterAll drains a streaming iterator into scan results.
func iterAll(t *testing.T, it *Iterator, err error) []ScanResult {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []ScanResult
	for ; it.Valid(); it.Next() {
		out = append(out, ScanResult{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return out
}

// TestBoundedScanWalkEquivalence: a bounded scan that walks partitions in
// key order and stops at the limit returns exactly the first limit rows of
// the unbounded (fan-out) scan and of a streaming iterator — across
// boundaries, through tombstoned partition tails, and at a snapshot taken
// before later overwrites.
func TestBoundedScanWalkEquivalence(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "index"
		if disable {
			name = "no-index"
		}
		t.Run(name, func(t *testing.T) {
			db, snap := openWalkDB(t, disable)
			defer db.Close()
			defer snap.Close()

			readers := []struct {
				name string
				scan func(start []byte, limit int) ([]ScanResult, error)
				iter func(start []byte) (*Iterator, error)
			}{
				{"live",
					func(s []byte, l int) ([]ScanResult, error) { return db.Scan(s, nil, l) },
					func(s []byte) (*Iterator, error) { return db.NewIterator(s, nil) }},
				{"snapshot",
					func(s []byte, l int) ([]ScanResult, error) { return snap.Scan(s, nil, l) },
					func(s []byte) (*Iterator, error) { return snap.NewIterator(s, nil) }},
			}
			starts := []string{
				"",          // whole keyspace
				"key-00010", // deep inside partition 0
				"key-00195", // five live rows, then partition 0's tombstoned tail
				"key-00249", // last key of partition 0, tombstoned
				"key-00499", // just before a boundary; deleted after the snapshot
				"key-00745", // partition 2's tombstoned tail
				"key-00990", // last partition: nothing to walk into
			}
			for _, r := range readers {
				for _, s := range starts {
					var start []byte
					if s != "" {
						start = []byte(s)
					}
					full, err := r.scan(start, 0)
					if err != nil {
						t.Fatal(err)
					}
					it, err := r.iter(start)
					sameResults(t, fmt.Sprintf("%s start=%q: unbounded scan vs iterator", r.name, s), full, iterAll(t, it, err))

					// Rows the start key's own partition contributes.
					first := db.route(start)
					inFirst := 0
					for _, e := range full {
						if first.hi != nil && string(e.Key) >= string(first.hi) {
							break
						}
						inFirst++
					}
					for _, limit := range []int{1, inFirst, inFirst + 1, len(full) + 100} {
						if limit == 0 {
							continue // 0 means unbounded, covered above
						}
						got, err := r.scan(start, limit)
						if err != nil {
							t.Fatal(err)
						}
						want := full
						if limit < len(full) {
							want = full[:limit]
						}
						sameResults(t, fmt.Sprintf("%s start=%q limit=%d", r.name, s, limit), got, want)
					}
				}
			}
		})
	}
}

// TestBoundedScanTouchesOnlyNeededPartitions: a bounded scan opens one
// partition scan per partition it actually reads from, and the partitions
// past the last one visited see no read toward Eq. 3's n_i^r.
func TestBoundedScanTouchesOnlyNeededPartitions(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "index"
		if disable {
			name = "no-index"
		}
		t.Run(name, func(t *testing.T) {
			db, snap := openWalkDB(t, disable)
			snap.Close()
			defer db.Close()

			cases := []struct {
				start   string
				limit   int
				touched int // partitions visited, starting at partition 0
			}{
				{"key-00010", 5, 1},
				{"key-00010", 150, 1},
				// key-00190..00199 are partition 0's last live rows; the
				// other ten come from partition 1.
				{"key-00190", 20, 2},
				// Only tombstones left in partition 0.
				{"key-00249", 1, 2},
			}
			m := db.Metrics()
			for _, c := range cases {
				var before []int64
				for _, p := range db.partitions {
					before = append(before, p.reads.Load())
				}
				visits := m.RangeViewHits.Load() + m.RangeViewFallbacks.Load()
				res, err := db.Scan([]byte(c.start), nil, c.limit)
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != c.limit {
					t.Fatalf("start=%s limit=%d: %d rows", c.start, c.limit, len(res))
				}
				if d := m.RangeViewHits.Load() + m.RangeViewFallbacks.Load() - visits; d != int64(c.touched) {
					t.Fatalf("start=%s limit=%d: %d partition scans, want %d", c.start, c.limit, d, c.touched)
				}
				for i, p := range db.partitions {
					want := before[i]
					if i < c.touched {
						want++
					}
					if got := p.reads.Load(); got != want {
						t.Fatalf("start=%s limit=%d: partition %d reads %d -> %d, want %d",
							c.start, c.limit, i, before[i], got, want)
					}
				}
			}
		})
	}
}

// TestBoundedScanQuarantineGuard: the walk stopping early does not weaken the
// quarantine guard — a bounded scan whose range intersects a quarantined
// table in any partition fails with ErrUnavailable, even when an earlier
// partition alone would fill the limit.
func TestBoundedScanQuarantineGuard(t *testing.T) {
	cfg := scrubConfig(fault.New(55))
	cfg.PartitionBoundaries = [][]byte{[]byte("key-0200")}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillSSD(t, db, 400)
	rotted := 0
	for _, tg := range db.RotTargets() {
		if tg.Device != "ssd" || tg.Partition != 1 {
			continue
		}
		if _, err := db.SSDDevice().Rot(ssd.FileID(tg.ID), 0, tg.Limit); err != nil {
			t.Fatal(err)
		}
		rotted++
	}
	if rotted == 0 {
		t.Fatal("no partition-1 SSD tables to rot")
	}
	if _, err := db.ScrubOnce(); err != nil {
		t.Fatal(err)
	}
	if len(db.QuarantineRecords()) == 0 {
		t.Fatal("scrub quarantined nothing")
	}
	if _, err := db.Scan([]byte("key-0000"), nil, 5); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("bounded scan over a quarantined partition: err = %v, want ErrUnavailable", err)
	}
	res, err := db.Scan([]byte("key-0000"), []byte("key-0200"), 5)
	if err != nil {
		t.Fatalf("bounded scan clear of the quarantine: %v", err)
	}
	if len(res) != 5 {
		t.Fatalf("bounded scan clear of the quarantine: %d rows, want 5", len(res))
	}
}
