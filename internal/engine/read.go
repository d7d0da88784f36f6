package engine

import (
	"bytes"
	"time"

	"pmblade/internal/kv"
	"pmblade/internal/levels"
	"pmblade/internal/sstable"
)

// Get returns the newest value of key, or ok=false when absent or deleted.
// A corrupt table encountered on the way is quarantined and the lookup
// retried once against the remaining sources (self-healing); if a
// quarantined table may have held the newest version of the key — a miss
// inside its range, or a hit served from a tier the corpse could shadow —
// Get fails with ErrUnavailable rather than lying with a silent not-found
// or a stale value.
func (db *DB) Get(key []byte) (value []byte, ok bool, err error) {
	if db.closed.Load() {
		return nil, false, ErrClosed
	}
	seq := db.beginRead()
	defer db.endRead(seq)
	return db.getAt(key, seq)
}

// getAt resolves key at an explicit snapshot sequence — the shared body of
// DB.Get and Snapshot.Get. The caller must hold a registry pin on seq.
func (db *DB) getAt(key []byte, seq uint64) (value []byte, ok bool, err error) {
	start := time.Now()
	p := db.route(key)
	e, ok, tier, err := db.get(p, key, seq)
	if err != nil && db.healCorruption(p, err) {
		// Retry at the SAME snapshot sequence: a heal retry that re-read at a
		// fresh sequence would silently move the read's point in time.
		e, ok, tier, err = db.get(p, key, seq)
	}
	if err != nil {
		return nil, false, err
	}
	if p.quarShadowed(key, ok, tier) {
		db.metrics.UnavailableReads.Add(1)
		return nil, false, ErrUnavailable
	}
	db.metrics.ReadLatency.Record(time.Since(start))
	db.metrics.CountRead(tier)
	p.reads.Add(1)
	if !ok || e.Kind == kv.KindDelete {
		return nil, false, nil
	}
	// Copy-out boundary: internal lookups alias cache/block memory.
	return append([]byte(nil), e.Value...), true, nil
}

// get resolves a key at a snapshot within its partition p (resolved once by
// the caller), reporting the serving tier. It returns tombstones to the
// caller (Kind). The returned Entry may alias internal block memory; copy
// before retaining.
func (db *DB) get(p *partition, key []byte, seq uint64) (kv.Entry, bool, Tier, error) {
	// 1. Active memtable + immutables, newest first.
	mem, imms := p.memSnapshot()
	if e, ok := mem.Get(key, seq); ok {
		return e, true, TierMemtable, nil
	}
	for _, m := range imms {
		if e, ok := m.Get(key, seq); ok {
			return e, true, TierMemtable, nil
		}
	}

	// 2. Level-0.
	if p.l0 != nil {
		e, ok, stats := p.l0.Get(key, seq)
		db.metrics.L0TablesProbed.Add(int64(stats.Probed))
		db.metrics.FilterHits.Add(int64(stats.FilterHits))
		db.metrics.FilterSkips.Add(int64(stats.FilterSkips))
		if ok {
			return e, true, TierPM, nil
		}
	} else if p.leveled == nil {
		l0 := p.l0ssdRef()
		for _, t := range l0 {
			if bytes.Compare(key, t.Smallest()) < 0 || bytes.Compare(key, t.Largest()) > 0 {
				continue
			}
			e, ok, err := t.Get(key, seq)
			if err != nil {
				unrefAll(l0)
				return kv.Entry{}, false, TierMiss, err
			}
			if ok {
				unrefAll(l0)
				return e, true, TierSSD, nil
			}
		}
		unrefAll(l0)
	}

	// 3. SSD tier.
	if p.leveled != nil {
		e, ok, err := p.leveled.Get(key, seq)
		if err != nil {
			return kv.Entry{}, false, TierMiss, err
		}
		if ok {
			return e, true, TierSSD, nil
		}
		return kv.Entry{}, false, TierMiss, nil
	}
	e, ok, err := p.run.Get(key, seq)
	if err != nil {
		return kv.Entry{}, false, TierMiss, err
	}
	if ok {
		return e, true, TierSSD, nil
	}
	return kv.Entry{}, false, TierMiss, nil
}

// ScanResult is one visible key-value pair returned by Scan.
type ScanResult struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit live entries with start <= key < end (nil end =
// unbounded). It merges every tier of every intersecting partition. A
// bounded scan walks the partitions in key order and stops at the first one
// that fills the limit; an unbounded scan (limit 0) needs every partition's
// rows, so it scans them in parallel through the scheduler pool and
// concatenates the results in range order.
func (db *DB) Scan(start, end []byte, limit int) ([]ScanResult, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	seq := db.beginRead()
	defer db.endRead(seq)
	return db.scanAt(start, end, limit, seq)
}

// scanAt is the explicit-sequence scan body shared by DB.Scan and
// Snapshot.Scan. The caller must hold a registry pin on seq.
//
// A bounded scan visits only the partitions whose rows the result can
// contain: the walk appends into the shared out and returns as soon as it
// holds limit rows. Fanning a bounded scan out to every partition after the
// start key would pay a seek and readahead in each and count a read toward
// each partition's Eq. 3 n_i^r, inflating the hotness of cold partitions
// the result never reaches.
func (db *DB) scanAt(start, end []byte, limit int, seq uint64) ([]ScanResult, error) {
	begin := time.Now()
	parts := db.partitionsInRange(start, end)
	// A scan cannot route around a quarantined table with Bloom precision the
	// way point reads can: any overlap with a quarantined key range makes the
	// result set untrustworthy, so the scan fails conservatively.
	for _, p := range parts {
		if p.quarOverlaps(start, end) {
			db.metrics.UnavailableReads.Add(1)
			return nil, ErrUnavailable
		}
	}
	var out []ScanResult
	if limit <= 0 && len(parts) > 1 {
		results := make([][]ScanResult, len(parts))
		db.pool.Fan(len(parts), func(i int) {
			results[i] = db.scanPartition(parts[i], start, end, 0, seq, nil)
		})
		for _, r := range results {
			out = append(out, r...)
		}
	} else {
		for i, p := range parts {
			// Partitions hold disjoint, ascending ranges: every later
			// partition starts at its own lower bound.
			from := start
			if i > 0 {
				from = p.lo
			}
			out = db.scanPartition(p, from, end, limit, seq, out)
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	db.metrics.ScanLatency.Record(time.Since(begin))
	return out, nil
}

// scanPartition appends partition p's visible entries in [start, end) to out,
// stopping once out holds limit entries (limit 0 = unbounded). Readahead is
// sized from the rows still missing, limit - len(out), so a scan spilling
// into a later partition does not over-read there. When a range-index view
// is current (or can be built) the stable sources stream through its
// selector walk; otherwise — and whenever the view proves inconsistent
// mid-scan — the plain merging-iterator path below serves the range
// unchanged.
func (db *DB) scanPartition(p *partition, start, end []byte, limit int, seq uint64, out []ScanResult) []ScanResult {
	if limit > 0 && len(out) >= limit {
		return out
	}
	if v := db.acquireView(p, true); v != nil {
		if v.Len() == 0 {
			// No stable sources yet: the view would only add merge plumbing on
			// top of the overlay merge below. Serve through the plain path.
			v.Unref()
		} else {
			res, ok := db.scanViewPartition(p, v, start, end, limit, seq, out)
			v.Unref()
			if ok {
				db.metrics.RangeViewHits.Add(1)
				p.reads.Add(1)
				return res
			}
		}
	}
	db.metrics.RangeViewFallbacks.Add(1)
	its, release := db.partitionIterators(p)
	defer release()
	for _, it := range its {
		if limit > 0 {
			if h, ok := it.(interface{ HintEntries(int) }); ok {
				h.HintEntries(limit - len(out) + 32)
			}
		}
		if start != nil {
			it.SeekGE(start)
		} else {
			it.SeekToFirst()
		}
	}
	// Visibility BEFORE dedup: filtering e.Seq > seq after DedupIterator
	// would discard keys whose newest version postdates the snapshot — the
	// dedup would keep the invisible newest version and the filter would
	// then drop the key entirely instead of yielding its older visible one.
	merged := kv.NewDedupIterator(kv.NewVisibleIterator(kv.NewMergingIteratorAt(its...), seq), false)
	for ; merged.Valid(); merged.Next() {
		e := merged.Entry()
		if end != nil && bytes.Compare(e.Key, end) >= 0 {
			break
		}
		if e.Kind == kv.KindDelete {
			continue
		}
		// DedupIterator owns freshly allocated buffers per entry, so they can
		// be handed to the caller without another copy.
		out = append(out, ScanResult{Key: e.Key, Value: e.Value})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	p.reads.Add(1)
	return out
}

// unrefAll releases a ref-held table snapshot.
func unrefAll(ts []*sstable.Table) {
	for _, t := range ts {
		t.Unref()
	}
}

// partitionIterators collects iterators over every tier of p, newest tiers
// first (rank order breaks merge ties in favor of newer data). SSD tables
// are reference-held; the caller must invoke release when done iterating.
// SSD sources use scan iterators: readahead spans on cache misses, cache
// hits served from memory (compaction uses NewCompactionIterator instead).
func (db *DB) partitionIterators(p *partition) (its []kv.Iterator, release func()) {
	var held []*sstable.Table
	mem, imms := p.memSnapshot()
	its = append(its, mem.NewIterator())
	for _, m := range imms {
		its = append(its, m.NewIterator())
	}
	if p.l0 != nil {
		its = append(its, p.l0.Iterators()...)
	} else if p.leveled == nil {
		l0 := p.l0ssdRef()
		held = append(held, l0...)
		for _, t := range l0 {
			its = append(its, t.NewScanIterator())
		}
	}
	if p.leveled != nil {
		l0 := p.leveled.RefL0()
		held = append(held, l0...)
		for _, t := range l0 {
			its = append(its, t.NewScanIterator())
		}
		for lv := 1; lv <= p.leveled.Levels(); lv++ {
			ts := p.leveled.Run(lv).RefTables()
			held = append(held, ts...)
			for _, t := range ts {
				its = append(its, t.NewScanIterator())
			}
		}
	} else {
		ts := p.run.RefTables()
		held = append(held, ts...)
		// The run is non-overlapping: a concatenating iterator seeks only
		// the single covering table instead of every table.
		its = append(its, levels.NewConcatScanIterator(ts))
	}
	return its, func() { unrefAll(held) }
}
