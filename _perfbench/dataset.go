package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"pmblade"
	"pmblade/internal/ycsb"
)

// The shared dataset and configuration every workload starts from. The data
// (numRecords × valueSize ≈ 125 MiB) is about 2.6× the PM capacity and 16×
// the block cache, so reads reach all three tiers.
const (
	numRecords    = 128 << 10
	valueSize     = 1024
	numPartitions = 8
	memtableBytes = 1 << 20
	pmBytes       = 48 << 20
	cacheBytes    = 8 << 20
	zipfTheta     = 0.99
	loadBatch     = 64 // entries per Apply during set-up
	maxScanLen    = 100
	fillPoolBytes = 64 << 10
)

// Value layout: key index (8 bytes LE) | version (4) | CRC32C (4) | filler.
// The checksum covers every byte except its own field, so a value read back
// proves it belongs to its key and was not torn or mixed with another value.
const (
	valHeader = 16
	fillBytes = valueSize - valHeader
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func valueCRC(idx uint64, ver uint32, filler []byte) uint32 {
	var h [12]byte
	binary.LittleEndian.PutUint64(h[0:], idx)
	binary.LittleEndian.PutUint32(h[8:], ver)
	return crc32.Update(crc32.Checksum(h[:], castagnoli), castagnoli, filler)
}

// writeValue assembles a value from its pre-computed parts into dst, which
// must hold valueSize bytes. The engine copies values on write, so one
// buffer per client is reused for every write.
func writeValue(dst []byte, pool []byte, o *op) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(o.key))
	binary.LittleEndian.PutUint32(dst[8:], o.ver)
	binary.LittleEndian.PutUint32(dst[12:], o.crc)
	copy(dst[valHeader:], pool[o.fill:int(o.fill)+fillBytes])
}

// Check failures, counted toward the error rate.
var (
	errMissing   = errors.New("key missing")
	errWrongKey  = errors.New("value belongs to another key")
	errChecksum  = errors.New("value checksum mismatch")
	errShortScan = errors.New("scan returned too few rows")
	errScanOrder = errors.New("scan keys not strictly ascending from the start key")
)

// checkValue verifies that v is an intact value written for key idx.
func checkValue(v []byte, idx uint64) error {
	if len(v) != valueSize {
		return fmt.Errorf("%w: length %d", errChecksum, len(v))
	}
	if got := binary.LittleEndian.Uint64(v[0:]); got != idx {
		return fmt.Errorf("%w: want key %d, value is for %d", errWrongKey, idx, got)
	}
	ver := binary.LittleEndian.Uint32(v[8:])
	if binary.LittleEndian.Uint32(v[12:]) != valueCRC(idx, ver, v[valHeader:]) {
		return errChecksum
	}
	return nil
}

// checkKV verifies that v is an intact value of key and returns the key
// index the value holds.
func checkKV(d *dataset, key, v []byte) (uint64, error) {
	if len(v) != valueSize {
		return 0, fmt.Errorf("%w: length %d", errChecksum, len(v))
	}
	idx := binary.LittleEndian.Uint64(v)
	if idx >= uint64(len(d.keys)) || !bytes.Equal(d.keys[idx], key) {
		return idx, fmt.Errorf("%w: %q holds key %d", errWrongKey, key, idx)
	}
	return idx, checkValue(v, idx)
}

// checkScan verifies a scan that started at key index start with the given
// limit. Every loaded key exists and none is deleted, so the rows below
// numRecords must be exactly start, start+1, ...; inserted keys above it are
// only required to ascend.
func checkScan(d *dataset, rows []pmblade.KV, start uint32, limit int) error {
	want := limit
	if remaining := numRecords - int(start); remaining < want {
		want = remaining // inserted keys may add more, never fewer
	}
	if len(rows) < want || len(rows) > limit {
		return fmt.Errorf("%w: %d rows, want %d..%d", errShortScan, len(rows), want, limit)
	}
	prev := d.keys[start]
	for i, r := range rows {
		if (i == 0 && bytes.Compare(r.Key, prev) < 0) || (i > 0 && bytes.Compare(r.Key, prev) <= 0) {
			return fmt.Errorf("%w: row %d %q after %q", errScanOrder, i, r.Key, prev)
		}
		prev = r.Key
		idx, err := checkKV(d, r.Key, r.Value)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if exp := uint64(start) + uint64(i); exp < numRecords && idx != exp {
			return fmt.Errorf("%w: row %d is key %d, want %d", errMissing, i, idx, exp)
		}
	}
	return nil
}

// opKind is an operation type of the generated streams.
type opKind uint8

const (
	opRead opKind = iota
	opUpdate
	opInsert
	opScan
	numOpKinds
)

// op is one pre-generated operation. Writes carry their value's version,
// filler offset and checksum, so the timed loop only places bytes.
type op struct {
	kind    opKind
	scanLen uint8
	key     uint32
	ver     uint32
	fill    uint32
	crc     uint32
}

// workload is one named traffic mix. Shares are percentages.
type workload struct {
	name                       string
	clients                    int
	read, update, insert, scan int
	why                        string
}

var workloads = []workload{
	{name: "update_heavy", clients: 2, read: 50, update: 50,
		why: "YCSB-A with 2 clients: WAL group commit, memtable, flush, internal and major compaction under load"},
	{name: "read_mostly", clients: 1, read: 95, update: 5,
		why: "YCSB-B: point reads served by memtable, PM level-0 and SSD with the block cache; little write work"},
	{name: "scan_mostly", clients: 1, insert: 5, scan: 95,
		why: "YCSB-E: range scans through the range index, merging iterators and scan readahead; point reads idle"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// share reports the percentage of a workload's ops of kind k; writes are
// updates plus inserts.
func (w workload) share(k opKind) int {
	switch k {
	case opRead:
		return w.read
	case opScan:
		return w.scan
	default:
		return w.update + w.insert
	}
}

// dataset holds every input of one run, generated from the seed before any
// clock starts.
type dataset struct {
	keys    [][]byte // keys[i] is record i; loaded keys first, then insert keys
	pool    []byte   // random filler bytes
	loadOps []op     // set-up writes, one per loaded record
	streams [][]op   // per-client closed-loop streams
	probes  [numOpKinds][]op
}

// newDataset generates the inputs for workload w. perClient is the stream
// length of each client; a client that exhausts its stream wraps around.
func newDataset(w workload, seed int64, perClient, probeOps int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{pool: make([]byte, fillPoolBytes+fillBytes)}
	rng.Read(d.pool)

	inserts := (perClient*w.clients*w.insert)/100 + perClient/50 + probeOps + 16
	d.keys = make([][]byte, numRecords+inserts)
	for i := range d.keys {
		d.keys[i] = ycsb.KeyAt(uint64(i))
	}
	d.loadOps = make([]op, numRecords)
	for i := range d.loadOps {
		d.loadOps[i] = d.write(rng, opInsert, uint32(i), 0)
	}

	zipf := ycsb.NewZipfian(numRecords, zipfTheta, seed)
	nextInsert := uint32(numRecords)
	gen := func(rng *rand.Rand, k opKind, ver uint32) op {
		switch k {
		case opInsert:
			o := d.write(rng, opInsert, nextInsert, ver)
			nextInsert++
			return o
		case opUpdate:
			return d.write(rng, opUpdate, uint32(zipf.Next(rng)), ver)
		case opScan:
			return op{kind: opScan, key: uint32(zipf.Next(rng)), scanLen: uint8(1 + rng.Intn(maxScanLen))}
		default:
			return op{kind: opRead, key: uint32(zipf.Next(rng))}
		}
	}
	// Streams are generated client by client. Only scan_mostly inserts, and
	// it runs one client, so insert keys stay dense.
	d.streams = make([][]op, w.clients)
	for c := range d.streams {
		crng := rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
		s := make([]op, perClient)
		for i := range s {
			r := crng.Intn(100)
			k := opRead
			switch {
			case r < w.read:
			case r < w.read+w.update:
				k = opUpdate
			case r < w.read+w.update+w.insert:
				k = opInsert
			default:
				k = opScan
			}
			s[i] = gen(crng, k, uint32(c)<<28|uint32(i+1))
		}
		d.streams[c] = s
	}
	// The probes time the op types that make up under minShare of the mix.
	prng := rand.New(rand.NewSource(seed*1000 + 999))
	for _, k := range []opKind{opRead, opUpdate, opScan} {
		if w.share(k) >= minShare {
			continue
		}
		kind := k
		if k == opUpdate && w.insert > 0 {
			kind = opInsert
		}
		p := make([]op, probeOps)
		for i := range p {
			p[i] = gen(prng, kind, 0xF<<28|uint32(i+1))
		}
		d.probes[k] = p
	}
	return d
}

// write pre-computes a write of key idx at version ver with a random filler.
func (d *dataset) write(rng *rand.Rand, k opKind, idx, ver uint32) op {
	return d.writeAt(k, idx, ver, uint32(rng.Intn(fillPoolBytes)))
}

func (d *dataset) writeAt(k opKind, idx, ver, fill uint32) op {
	return op{kind: k, key: idx, ver: ver, fill: fill,
		crc: valueCRC(uint64(idx), ver, d.pool[fill:int(fill)+fillBytes])}
}

// options is the engine configuration shared by every workload.
func options() pmblade.Options {
	o := pmblade.DefaultOptions()
	o.PMCapacityBytes = pmBytes
	o.MemtableBytes = memtableBytes
	o.BlockCacheBytes = cacheBytes
	o.RealisticLatency = true
	for i := 1; i < numPartitions; i++ {
		o.PartitionBoundaries = append(o.PartitionBoundaries, ycsb.KeyAt(uint64(i*numRecords/numPartitions)))
	}
	return o
}

// setup opens a fresh database and loads keys 0..numRecords-1 through Apply
// batches, then flushes. It returns the database and the time it took.
func setup(d *dataset) (*pmblade.DB, time.Duration, error) {
	start := time.Now()
	db, err := pmblade.Open(options())
	if err != nil {
		return nil, 0, err
	}
	val := make([]byte, valueSize)
	var b pmblade.Batch
	for i := range d.loadOps {
		o := &d.loadOps[i]
		writeValue(val, d.pool, o)
		b.Put(d.keys[o.key], val)
		if b.Len() == loadBatch || i == len(d.loadOps)-1 {
			if err := db.Apply(&b); err != nil {
				db.Close()
				return nil, 0, fmt.Errorf("load: %w", err)
			}
			b.Reset()
		}
	}
	if err := db.Flush(); err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("load flush: %w", err)
	}
	return db, time.Since(start), nil
}
