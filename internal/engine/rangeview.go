package engine

import (
	"bytes"
	"sort"

	"pmblade/internal/clock"
	"pmblade/internal/kv"
	"pmblade/internal/levels"
	"pmblade/internal/pmtable"
	"pmblade/internal/rangeindex"
	"pmblade/internal/sstable"
)

// viewSegTarget is the anchor spacing of partition views: small enough that
// a seek's selector walk stays short, large enough that anchor memory is a
// fraction of a selector byte per entry.
const viewSegTarget = 32

// viewBackoffScans is how many scans skip the inline rebuild after a build
// was discarded because the epoch moved mid-build.
const viewBackoffScans = 8

// pmViewSource adapts a sorted PM level-0 table.
type pmViewSource struct{ t *pmtable.Table }

func (s pmViewSource) NewCursor() kv.PosIterator { return s.t.NewIterator().(kv.PosIterator) }
func (s pmViewSource) Len() int                  { return s.t.Len() }
func (s pmViewSource) DataBytes() int64          { return s.t.SizeBytes() }

// runViewSource adapts a sorted, non-overlapping table sequence (the SSD run
// or one leveled run) as a single source through a concatenating cursor.
type runViewSource struct{ tables []*sstable.Table }

func (s runViewSource) NewCursor() kv.PosIterator { return levels.NewConcatScanIterator(s.tables) }
func (s runViewSource) Len() int {
	n := 0
	for _, t := range s.tables {
		n += t.Len()
	}
	return n
}

func (s runViewSource) DataBytes() int64 {
	var n int64
	for _, t := range s.tables {
		n += t.SizeBytes()
	}
	return n
}

// stableViewSources snapshots the partition's stable sorted sources — the
// inputs of a range-index view. SSD tables are reference-held; release drops
// them (it is handed to the view as its release hook). The mutable overlay
// (memtable, immutables, unsorted PM tables, SSD/leveled level-0) is
// deliberately excluded: it changes on every flush, while these sources only
// change at compaction/repair install points.
func (db *DB) stableViewSources(p *partition) (srcs []rangeindex.Source, release func()) {
	var held []*sstable.Table
	if p.l0 != nil {
		_, sorted := p.l0.Tables()
		for _, t := range sorted {
			srcs = append(srcs, pmViewSource{t: t})
		}
	}
	if p.leveled != nil {
		for lv := 1; lv <= p.leveled.Levels(); lv++ {
			ts := p.leveled.Run(lv).RefTables()
			held = append(held, ts...)
			if len(ts) > 0 {
				srcs = append(srcs, runViewSource{tables: ts})
			}
		}
	} else {
		ts := p.run.RefTables()
		held = append(held, ts...)
		if len(ts) > 0 {
			srcs = append(srcs, runViewSource{tables: ts})
		}
	}
	return srcs, func() { unrefAll(held) }
}

// overlayIterators collects iterators over the mutable overlay of p — every
// tier a view does not cover — newest first (rank order breaks merge ties in
// favor of newer data, matching partitionIterators).
func (db *DB) overlayIterators(p *partition) (its []kv.Iterator, release func()) {
	var held []*sstable.Table
	mem, imms := p.memSnapshot()
	its = append(its, mem.NewIterator())
	for _, m := range imms {
		its = append(its, m.NewIterator())
	}
	if p.l0 != nil {
		unsorted, _ := p.l0.Tables()
		for _, t := range unsorted {
			its = append(its, t.NewIterator())
		}
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
	}
	return its, func() { unrefAll(held) }
}

// acquireView returns the partition's current view with a read reference
// held, or nil when the index is disabled, the installed view is stale, or
// no view exists. When build is true a missing/stale view is constructed
// inline (single-flighted, with backoff after doomed builds under churn).
func (db *DB) acquireView(p *partition, build bool) *rangeindex.View {
	if db.cfg.DisableRangeIndex {
		return nil
	}
	if v := p.view.Load(); v != nil && v.Epoch() == p.viewGen.Load() && v.TryRef() {
		return v
	}
	if !build {
		return nil
	}
	if p.viewBackoff.Load() > 0 {
		p.viewBackoff.Add(-1)
		return nil
	}
	return db.tryBuildView(p)
}

// tryBuildView constructs and installs a fresh view over p's stable sources,
// returning it with a read reference held. It returns nil when another build
// is in flight or the epoch moved mid-build (the view would be stale before
// its first use). Safe to call from any context that may touch the devices:
// it takes no engine locks.
func (db *DB) tryBuildView(p *partition) *rangeindex.View {
	if !p.viewBuilding.CompareAndSwap(false, true) {
		return nil
	}
	defer p.viewBuilding.Store(false)
	gen := p.viewGen.Load()
	srcs, release := db.stableViewSources(p)
	sw := clock.NewStopwatch()
	v, err := rangeindex.Build(gen, srcs, viewSegTarget, release)
	if err != nil {
		release()
		return nil
	}
	db.metrics.RangeViewBuilds.Add(1)
	db.metrics.RangeViewBuildNanos.Add(sw.Elapsed().Nanoseconds())
	db.metrics.RangeViewSegments.Add(int64(v.Segments()))
	db.metrics.RangeViewBytes.Add(v.Bytes())
	if p.viewGen.Load() != gen {
		// Sources changed mid-build: the view is stale on arrival. Discard
		// and back off so churn cannot make every scan pay a doomed build.
		p.viewBackoff.Store(viewBackoffScans)
		v.Unref()
		return nil
	}
	v.TryRef() // reader reference; cannot fail, the owner reference is live
	if old := p.view.Swap(v); old != nil {
		old.Unref()
	}
	if p.viewGen.Load() != gen {
		// An install raced the swap; drop the owner reference eagerly so the
		// stale view does not pin table files until the next install point.
		if p.view.CompareAndSwap(v, nil) {
			v.Unref()
		}
	}
	return v
}

// invalidateView bumps p's view epoch and unhooks the installed view,
// releasing its table references. Every mutation of the stable sorted set
// (compaction install, repair reinstall, quarantine detach) must call it.
// When rebuild is set and a view was installed — i.e. scans on this
// partition actually use the index — a replacement is built immediately at
// the install point, so steady scan workloads never see a fallback window.
func (db *DB) invalidateView(p *partition, rebuild bool) {
	p.viewGen.Add(1)
	old := p.view.Swap(nil)
	if old == nil {
		return
	}
	old.Unref()
	if rebuild && !db.cfg.DisableRangeIndex {
		if v := db.tryBuildView(p); v != nil {
			v.Unref()
		}
	}
}

// dropViews releases every partition's view at Close, dropping their table
// references.
func (db *DB) dropViews() {
	for _, p := range db.partitions {
		if old := p.view.Swap(nil); old != nil {
			old.Unref()
		}
	}
}

// partitionSources returns p's iterator stack for merged iteration: the
// mutable overlay plus the range-index view's cursor-following iterator
// (ranked last — it is the oldest data) when a view is current or buildable,
// else every tier via partitionIterators. release also drops the view
// reference.
func (db *DB) partitionSources(p *partition) (its []kv.Iterator, release func()) {
	v := db.acquireView(p, true)
	if v != nil && v.Len() == 0 {
		// An empty view (no stable sources yet) adds merge plumbing without
		// removing any: the plain path serves the overlay alone just as well.
		v.Unref()
		v = nil
	}
	if v == nil {
		db.metrics.RangeViewFallbacks.Add(1)
		return db.partitionIterators(p)
	}
	db.metrics.RangeViewHits.Add(1)
	its, orelease := db.overlayIterators(p)
	its = append(its, v.NewIter())
	return its, func() { orelease(); v.Unref() }
}

// scanArena allocates scan results in chunks: one bump-pointer append per
// key/value instead of one heap allocation each, which is the dominant cost
// of the dedup copy-out path. Chunks are never grown in place, so handed-out
// slices stay valid and capacity-clamped (callers cannot append into a
// neighbor).
type scanArena struct{ buf []byte }

const scanArenaChunk = 16 << 10

// reserve sizes the first chunk for an expected payload of n bytes, so a
// bounded scan whose footprint is predictable fills one exact allocation
// instead of spilling across power-of-two chunks.
func (a *scanArena) reserve(n int) {
	if n > 0 && a.buf == nil {
		a.buf = make([]byte, 0, n)
	}
}

func (a *scanArena) copy(b []byte) []byte {
	if len(a.buf)+len(b) > cap(a.buf) {
		n := scanArenaChunk
		for n < len(b) {
			n <<= 1
		}
		a.buf = make([]byte, 0, n)
	}
	off := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[off : off+len(b) : off+len(b)]
}

// viewGetBatch resolves the still-unfound keys of a MultiGet sub-batch
// through one set of shared view cursors: keys are visited in sorted order
// and the cursors only move forward, so keys landing in the same or adjacent
// segments reuse positioned cursors and already-loaded blocks — the
// range-adjacent analogue of GetBatch's per-table block coalescing, except
// it also spans tables. Reports ok=false when the view proved inconsistent
// mid-walk; the caller redoes the remaining keys through the plain path
// (keys already marked found keep their results — GetBatch skips them).
func viewGetBatch(v *rangeindex.View, subKeys [][]byte, seq uint64, subEntries []kv.Entry, subFound []bool) (ok bool) {
	order := make([]int, 0, len(subKeys))
	for j := range subKeys {
		if !subFound[j] {
			order = append(order, j)
		}
	}
	if len(order) == 0 {
		return true
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(subKeys[order[a]], subKeys[order[b]]) < 0
	})
	it := v.NewIter()
	for n, j := range order {
		key := subKeys[j]
		if n == 0 {
			it.SeekGE(key)
		} else {
			it.AdvanceTo(key)
		}
		// Skip versions newer than the snapshot; the first remaining entry of
		// the key is the newest visible one.
		for it.Valid() && it.Entry().Seq > seq && bytes.Equal(it.Entry().Key, key) {
			it.Next()
		}
		if it.Err() != nil {
			return false
		}
		if !it.Valid() {
			continue
		}
		if e := it.Entry(); bytes.Equal(e.Key, key) {
			// The entry's Key may alias a reusable cursor buffer; store the
			// caller's key instead. Value aliases table/block memory that
			// outlives the cursor, same as the plain GetBatch path.
			subEntries[j] = kv.Entry{Key: key, Value: e.Value, Seq: e.Seq, Kind: e.Kind}
			subFound[j] = true
		}
	}
	return it.Err() == nil
}

// scanViewPartition is scanPartition's fast path: the stable sources stream
// through the view's selector walk (no per-step heap pushes, no per-step
// key comparisons between stable sources) and only the mutable overlay goes
// through a merging iterator, in a 2-way merge. Returns ok=false — with out
// restored to its input length — if the view turned out inconsistent with
// its sources; the caller redoes the range through the plain merge.
func (db *DB) scanViewPartition(p *partition, v *rangeindex.View, start, end []byte, limit int, seq uint64, out []ScanResult) ([]ScanResult, bool) {
	base := len(out)
	// want is the rows this partition may still contribute (0 = unbounded):
	// a bounded scan that spilled over from an earlier partition sizes its
	// readahead and reservations from the remainder, not the global limit.
	want := 0
	if limit > 0 {
		want = limit - base
	}
	vi := v.NewIter()
	oits, orelease := db.overlayIterators(p)
	defer orelease()
	if want > 0 {
		// Bounded scan: cap the sources' first readahead span to roughly what
		// the scan will consume (slack for the seek's anchor walk and stale
		// versions) instead of a full ScanReadahead window. Must precede the
		// seek — the seek performs the first span read.
		hint := want + viewSegTarget
		vi.HintEntries(hint)
		for _, it := range oits {
			if h, ok := it.(interface{ HintEntries(int) }); ok {
				h.HintEntries(hint)
			}
		}
	}
	if start != nil {
		vi.SeekGE(start)
		for _, it := range oits {
			it.SeekGE(start)
		}
	} else {
		vi.SeekToFirst()
		for _, it := range oits {
			it.SeekToFirst()
		}
	}
	ov := kv.NewMergingIteratorAt(oits...)
	var arena scanArena
	if want > 0 && want <= 4096 {
		// Right-size the result copies: the view knows its sources' average
		// entry footprint, so a bounded scan can fill one exact arena chunk
		// and one exact result slice instead of growing both geometrically.
		if avg := v.AvgEntryBytes(); avg > 0 {
			arena.reserve(want*avg + 512)
		}
		if cap(out)-base < want {
			grown := make([]ScanResult, base, base+want)
			copy(grown, out)
			out = grown
		}
	}
	// consumedKey is the last user key DECIDED: its newest visible version was
	// seen and emitted (or was a tombstone). An entry whose Seq postdates the
	// snapshot must NOT consume its key — an older, visible version may follow
	// and still owns the decision. lastFromView is true only when the previous
	// processed entry came from the view AND its key is the consumed one; that
	// is the precondition for both the dup-bit fast skip (same key as the
	// consumed view key) and the dup-bit-clear "new key by construction" skip
	// of the bytes.Equal below.
	var consumedKey []byte
	haveConsumed := false
	lastFromView := false
	vOK, oOK := vi.Valid(), ov.Valid()
	for {
		if !vOK && !oOK {
			break
		}
		fromView := vOK && (!oOK || kv.Compare(vi.Entry(), ov.Entry()) <= 0)
		var e kv.Entry
		if fromView {
			if lastFromView && vi.SameAsPrev() {
				// Older version of the consumed key; skip without key compares.
				vi.Next()
				vOK = vi.Valid()
				continue
			}
			e = vi.Entry()
		} else {
			e = ov.Entry()
		}
		if end != nil && bytes.Compare(e.Key, end) >= 0 {
			break
		}
		var decided bool
		if fromView && lastFromView {
			// Dup bit clear (else the fast skip above fired) and the previous
			// view entry holds the consumed key: keys differ by construction.
			decided = false
		} else {
			decided = haveConsumed && bytes.Equal(e.Key, consumedKey)
		}
		consumed := decided
		if !decided && e.Seq <= seq {
			// Newest visible version of an undecided key: the decision is made
			// here whether it is a live value or a tombstone.
			consumedKey = append(consumedKey[:0], e.Key...)
			haveConsumed = true
			consumed = true
			if e.Kind != kv.KindDelete {
				out = append(out, ScanResult{Key: arena.copy(e.Key), Value: arena.copy(e.Value)})
				if limit > 0 && len(out) >= limit {
					break
				}
			}
		}
		lastFromView = fromView && consumed
		if fromView {
			vi.Next()
			vOK = vi.Valid()
		} else {
			ov.Next()
			oOK = ov.Valid()
		}
	}
	if vi.Err() != nil {
		return out[:base], false
	}
	return out, true
}
