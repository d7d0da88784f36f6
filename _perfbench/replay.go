package main

import (
	"fmt"
	"sort"

	"pmblade/internal/bloom"
	"pmblade/internal/costmodel"
	"pmblade/internal/device"
	"pmblade/internal/kv"
	"pmblade/internal/memtable"
	"pmblade/internal/pmem"
	"pmblade/internal/pmtable"
	"pmblade/internal/rangeindex"
	"pmblade/internal/ssd"
	"pmblade/internal/sstable"
	"pmblade/internal/wal"
)

// Layer replay calls the layer packages' public functions directly with the
// workload's own keys and values, on devices with the benchmark's latency
// profiles: the per-structure latencies of the paper's Table I.
const (
	replayTable   = 1024 // entries per replayed table, about one memtable
	replaySources = 4    // sorted PM tables under the replayed range view
	replayProbes  = 4096 // lookups per replayed read measurement
	replayCommits = 400  // WAL Append+Sync pairs
	replaySSDGets = 400  // uncached SSTable Gets
)

// replayEntries returns n entries with distinct keys drawn from the
// client-0 stream, sorted, at sequence numbers seq0+1.., with values built
// exactly as the workload builds them.
func replayEntries(d *dataset, from, n int, seq0 uint64) []kv.Entry {
	seen := make(map[uint32]bool, n)
	var out []kv.Entry
	s := d.streams[0]
	for i := from; len(out) < n && i < from+len(s); i++ {
		o := s[i%len(s)]
		if seen[o.key] {
			continue
		}
		seen[o.key] = true
		w := d.writeAt(opUpdate, o.key, uint32(seq0)+uint32(len(out))+1, uint32(i*61)%fillPoolBytes)
		v := make([]byte, valueSize)
		writeValue(v, d.pool, &w)
		out = append(out, kv.Entry{Key: d.keys[o.key], Value: v, Seq: seq0 + uint64(len(out)) + 1})
	}
	sort.Slice(out, func(i, j int) bool { return kv.Compare(out[i], out[j]) < 0 })
	return out
}

// keyOf returns the key index of op i of the client-0 stream.
func (d *dataset) keyOf(i int) uint32 { return d.streams[0][i%len(d.streams[0])].key }

// probeKeys returns the keys of the first n ops of the client-0 stream.
func probeKeys(d *dataset, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = d.keys[d.keyOf(i)]
	}
	return keys
}

// pmSource adapts a sorted PM table as a range-view source.
type pmSource struct{ t *pmtable.Table }

func (s pmSource) NewCursor() kv.PosIterator { return s.t.NewIterator().(kv.PosIterator) }
func (s pmSource) Len() int                  { return s.t.Len() }

// replayPMRead times a 64 B pmem ReadAt. The time scales with the spin rate
// clock.Calibrate measured, so a bad calibration shows here. It returns the
// Optane-profile device it read from.
func replayPMRead(t *tracer, d *dataset) (float64, *pmem.Device, error) {
	pm := pmem.New(256<<20, pmem.OptaneProfile)
	region, err := pm.Alloc(1 << 20)
	if err != nil {
		return 0, nil, fmt.Errorf("pmem replay: %w", err)
	}
	buf := make([]byte, 64)
	var readErr error
	ns := t.timeBatches("replay.pmem.ReadAt", replayProbes, 16, func(i int) {
		off := int64(d.keyOf(i)%16384) * 64
		if err := pm.ReadAt(region, off, buf, device.CauseClientRead); err != nil && readErr == nil {
			readErr = err
		}
	})
	if readErr != nil {
		return 0, nil, fmt.Errorf("pmem replay: %w", readErr)
	}
	return ns, pm, nil
}

// replayLayers measures every replayed layer call and returns the metrics
// by name. It fails only if a layer call returns an error or a wrong result.
func replayLayers(t *tracer, d *dataset) (map[string]float64, error) {
	out := map[string]float64{}
	entries := replayEntries(d, 0, replayTable, 0)
	probes := probeKeys(d, replayProbes)

	// memtable: insert a memtable's worth of entries, then look keys up.
	mt := memtable.New()
	out["memtable.add_ns"] = t.timeBatches("replay.memtable.Add", len(entries), 16, func(i int) { mt.Add(entries[i]) })
	bad := 0
	out["memtable.get_ns"] = t.timeBatches("replay.memtable.Get", len(probes), 16, func(i int) {
		if e, ok := mt.Get(probes[i], kv.MaxSeq); ok && badEntry(d, e) {
			bad++
		}
	})
	if bad > 0 {
		return nil, fmt.Errorf("memtable replay: %d wrong lookups", bad)
	}

	// bloom: the filter PM and SSD tables keep for their keys.
	keys := make([][]byte, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	f := bloom.New(keys, 10)
	falseNeg := 0
	out["bloom.may_contain_ns"] = t.timeBatches("replay.bloom.MayContain", len(keys), 32, func(i int) {
		if !f.MayContain(keys[i]) {
			falseNeg++
		}
	})
	if falseNeg > 0 {
		return nil, fmt.Errorf("bloom replay: %d false negatives", falseNeg)
	}

	rp, pm, err := replayPMRead(t, d)
	if err != nil {
		return nil, err
	}
	out["pmem.read_ns"] = rp

	// pmtable: build memtable-sized prefix-format tables, then point reads.
	var tables []*pmtable.Table
	var rates []float64
	for s := 0; s < replaySources; s++ {
		es := entries
		if s > 0 {
			es = replayEntries(d, s*replayTable*4, replayTable, uint64(s)*replayTable*2)
		}
		start := t.now()
		res, err := pmtable.Build(pm, es, pmtable.FormatPrefix, 0, device.CauseFlush)
		end := t.now()
		if err != nil {
			return nil, fmt.Errorf("pmtable replay: %w", err)
		}
		t.add(span{parent: -1, op: -1, name: "replay.pmtable.Build", start: start, end: end})
		rates = append(rates, float64(res.RawBytes)/(1<<20)/(float64(end-start)/1e9))
		tables = append(tables, res.Table)
	}
	sort.Float64s(rates)
	out["pmtable.build_mb_s"] = (rates[len(rates)/2-1] + rates[len(rates)/2]) / 2
	out["pmtable.get_ns"] = t.timeBatches("replay.pmtable.Get", len(keys), 16, func(i int) {
		e, ok := tables[0].Get(keys[i], kv.MaxSeq)
		if !ok || badEntry(d, e) {
			bad++
		}
	})
	if bad > 0 {
		return nil, fmt.Errorf("pmtable replay: %d wrong lookups", bad)
	}

	// rangeindex: a view over the sorted PM tables, then seeks and steps.
	srcs := make([]rangeindex.Source, len(tables))
	for i, tb := range tables {
		srcs[i] = pmSource{tb}
	}
	view, err := rangeindex.Build(1, srcs, 32, nil)
	if err != nil {
		return nil, fmt.Errorf("rangeindex replay: %w", err)
	}
	it := view.NewIter()
	out["rangeindex.seek_ns"] = t.timeBatches("replay.rangeindex.SeekGE", len(probes), 16, func(i int) { it.SeekGE(probes[i]) })
	it.SeekToFirst()
	steps := 0
	out["rangeindex.next_ns"] = t.timeBatches("replay.rangeindex.Next", view.Len()-1, 32, func(int) {
		it.Next()
		steps++
	})
	if !it.Valid() || it.Err() != nil {
		return nil, fmt.Errorf("rangeindex replay: walk ended after %d of %d steps: %v", steps, view.Len(), it.Err())
	}

	// sstable: a table on an NVMe-profile SSD, read through a cold handle
	// and through a warm block cache.
	sd := ssd.New(ssd.NVMeProfile)
	b := sstable.NewBuilder(sd, device.CauseMajor)
	for _, e := range entries {
		if err := b.Add(e); err != nil {
			return nil, fmt.Errorf("sstable replay: %w", err)
		}
	}
	st, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("sstable replay: %w", err)
	}
	cold, err := sstable.Open(sd, st.File(), nil)
	if err != nil {
		return nil, fmt.Errorf("sstable replay: %w", err)
	}
	cache := sstable.NewBlockCache(cacheBytes)
	warm, err := sstable.Open(sd, st.File(), cache)
	if err != nil {
		return nil, fmt.Errorf("sstable replay: %w", err)
	}
	get := func(tb *sstable.Table, key []byte) {
		e, ok, err := tb.Get(key, kv.MaxSeq)
		if err != nil || !ok || badEntry(d, e) {
			bad++
		}
	}
	out["sstable.get_uncached_us"] = t.timeBatches("replay.sstable.Get.uncached", replaySSDGets, 1, func(i int) { get(cold, keys[i%len(keys)]) }) / 1e3
	for _, k := range keys {
		get(warm, k)
	}
	out["sstable.get_cached_us"] = t.timeBatches("replay.sstable.Get.cached", len(keys), 16, func(i int) { get(warm, keys[i]) }) / 1e3
	if bad > 0 {
		return nil, fmt.Errorf("sstable replay: %d wrong lookups", bad)
	}

	// wal: one commit is an Append of the write's entry plus a Sync.
	w := wal.NewWriter(ssd.New(ssd.NVMeProfile))
	var walErr error
	out["wal.commit_us"] = t.timeBatches("replay.wal.AppendSync", replayCommits, 1, func(i int) {
		if err := w.Append(entries[i%len(entries)]); err != nil && walErr == nil {
			walErr = err
		}
		if err := w.Sync(); err != nil && walErr == nil {
			walErr = err
		}
	}) / 1e3
	if walErr != nil {
		return nil, fmt.Errorf("wal replay: %w", walErr)
	}

	// costmodel: the Eq. 3 knapsack over partitions whose read counts and
	// sizes come from the workload's key choices.
	parts := make([]costmodel.PartitionState, numPartitions)
	for i := range parts {
		parts[i] = costmodel.PartitionState{ID: i, Size: int64(numRecords / numPartitions * (valueSize + 23))}
	}
	for _, o := range d.streams[0] {
		p := &parts[int(o.key)*numPartitions/numRecords%numPartitions]
		if o.kind == opRead || o.kind == opScan {
			p.Reads++
		} else {
			p.Writes++
		}
	}
	params := costmodel.DefaultParams(pmBytes)
	kept := 0
	out["costmodel.select_preserved_us"] = t.timeBatches("replay.costmodel.SelectPreserved", 512, 16, func(int) {
		kept = len(params.SelectPreserved(parts))
	}) / 1e3
	if kept == 0 {
		return nil, fmt.Errorf("costmodel replay: empty selection")
	}
	return out, nil
}

// badEntry reports whether a replayed lookup returned anything but an
// intact value of its own key.
func badEntry(d *dataset, e kv.Entry) bool {
	_, err := checkKV(d, e.Key, e.Value)
	return err != nil
}
