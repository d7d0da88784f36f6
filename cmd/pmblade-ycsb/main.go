// Command pmblade-ycsb runs YCSB workloads (Load, A-F) against PM-Blade or
// one of the baselines and reports throughput and latency.
//
// Examples:
//
//	pmblade-ycsb -workloads load,a,b,c -records 100000 -ops 20000
//	pmblade-ycsb -system matrixkv -pm 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pmblade"
	"pmblade/internal/clock"
	"pmblade/internal/experiments"
	"pmblade/internal/matrixkv"
	"pmblade/internal/pmem"
	"pmblade/internal/ssd"
	"pmblade/internal/ycsb"
)

// store abstracts the two engines for the driver.
type store interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, bool, error)
	ScanN(start []byte, n int) error
}

type engineStore struct{ db *pmblade.DB }

func (s engineStore) Put(k, v []byte) error              { return s.db.Put(k, v) }
func (s engineStore) Get(k []byte) ([]byte, bool, error) { return s.db.Get(k) }
func (s engineStore) ScanN(start []byte, n int) error {
	_, err := s.db.Scan(start, nil, n)
	return err
}

type matrixStore struct{ db *matrixkv.DB }

func (s matrixStore) Put(k, v []byte) error              { return s.db.Put(k, v) }
func (s matrixStore) Get(k []byte) ([]byte, bool, error) { return s.db.Get(k) }
func (s matrixStore) ScanN(start []byte, n int) error {
	_, err := s.db.Scan(start, nil, n)
	return err
}

func main() {
	system := flag.String("system", "pmblade", "pmblade | pmblade-pm | pmblade-ssd | rocksdb | matrixkv")
	records := flag.Uint64("records", 50000, "records to load")
	ops := flag.Int("ops", 10000, "operations per workload")
	valueSize := flag.Int("value", 512, "value size")
	workloads := flag.String("workloads", "load,a,b,c,d,e,f", "comma-separated workload list")
	pmMB := flag.Int64("pm", 128, "PM capacity in MiB")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()
	clock.Calibrate()

	var st store
	switch *system {
	case "matrixkv":
		st = matrixStore{matrixkv.Open(matrixkv.Config{
			PMCapacity:    *pmMB << 20,
			PMProfile:     pmem.OptaneProfile,
			SSDProfile:    ssd.NVMeProfile,
			MemtableBytes: 4 << 20,
			DisableWAL:    true,
		})}
	default:
		sysName := map[string]string{
			"pmblade":     experiments.SysPMBlade,
			"pmblade-pm":  experiments.SysPMBladePM,
			"pmblade-ssd": experiments.SysPMBladeSSD,
			"rocksdb":     experiments.SysRocksDB,
		}[*system]
		if sysName == "" {
			fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
			os.Exit(1)
		}
		cfg := experiments.SystemConfig(sysName, experiments.EngineParams{
			PMCapacity:    *pmMB << 20,
			MemtableBytes: 4 << 20,
			Realistic:     true,
		})
		db, err := pmblade.OpenEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		st = engineStore{db}
	}

	for _, name := range strings.Split(*workloads, ",") {
		name = strings.TrimSpace(name)
		w, count, err := newPhase(name, *records, *ops, *valueSize, *seed)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < count; i++ {
			if err := runOp(st, w.Next()); err != nil {
				log.Fatalf("workload %s op %d: %v", name, i, err)
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%-5s %8d ops  %10v  %9.0f ops/s\n",
			name, count, elapsed.Round(time.Millisecond), float64(count)/elapsed.Seconds())
	}
}

// newPhase builds the generator for one workload phase and the number of
// operations to run. The load phase inserts keys 0..records-1: its generator
// starts from an empty keyspace (the insert cursor begins at recordCount),
// so workloads A–F, drawn over records preloaded keys, find what it wrote.
func newPhase(name string, records uint64, ops, valueSize int, seed int64) (*ycsb.Workload, int, error) {
	if name == "load" {
		w, err := ycsb.New(name, 0, valueSize, seed)
		return w, int(records), err
	}
	w, err := ycsb.New(name, records, valueSize, seed)
	return w, ops, err
}

// runOp applies one generated operation to the store.
func runOp(st store, op ycsb.Op) error {
	switch op.Kind {
	case ycsb.OpRead:
		_, _, err := st.Get(op.Key)
		return err
	case ycsb.OpUpdate, ycsb.OpInsert:
		return st.Put(op.Key, op.Value)
	case ycsb.OpScan:
		return st.ScanN(op.Key, op.ScanLen)
	case ycsb.OpRMW:
		if _, _, err := st.Get(op.Key); err != nil {
			return err
		}
		return st.Put(op.Key, op.Value)
	}
	return nil
}
