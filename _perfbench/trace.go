package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"pmblade"
	"pmblade/internal/device"
	"pmblade/internal/engine"
)

// tag indexes the counters sampled around every traced pmblade call. Each
// call span carries the deltas observed across the call; with one client
// they are exactly the call's own work.
type tag int

const (
	tagReadMemtable tag = iota
	tagReadPM
	tagReadSSD
	tagReadMiss
	tagL0Probed
	tagFilterHits
	tagFilterSkips
	tagViewHits
	tagViewFallbacks
	tagWALCommits
	tagPMClientReadBytes
	tagSSDClientReadOps
	numTags
)

var tagNames = [numTags]string{
	"reads_memtable", "reads_pm", "reads_ssd", "reads_miss",
	"l0_tables_probed", "filter_hits", "filter_skips",
	"view_hits", "view_fallbacks", "wal_commits",
	"pm_client_read_bytes", "ssd_client_read_ops",
}

type tagVec [numTags]int64

// sampleTags reads the tagged counters. Every one is a single atomic load.
func sampleTags(db *pmblade.DB, v *tagVec) {
	m := db.Metrics()
	v[tagReadMemtable] = m.ReadsBy(pmblade.TierMemtable)
	v[tagReadPM] = m.ReadsBy(pmblade.TierPM)
	v[tagReadSSD] = m.ReadsBy(pmblade.TierSSD)
	v[tagReadMiss] = m.ReadsBy(engine.TierMiss)
	v[tagL0Probed] = m.L0TablesProbed.Load()
	v[tagFilterHits] = m.FilterHits.Load()
	v[tagFilterSkips] = m.FilterSkips.Load()
	v[tagViewHits] = m.RangeViewHits.Load()
	v[tagViewFallbacks] = m.RangeViewFallbacks.Load()
	v[tagWALCommits] = m.WALCommitCount.Load()
	v[tagPMClientReadBytes] = db.Engine().PMDevice().Stats().ReadBytes(device.CauseClientRead)
	v[tagSSDClientReadOps] = db.Engine().SSDDevice().Stats().ReadOps(device.CauseClientRead)
}

// reads is the number of Gets resolved in a tag delta, misses included.
func (v *tagVec) reads() int64 {
	return v[tagReadMemtable] + v[tagReadPM] + v[tagReadSSD] + v[tagReadMiss]
}

// span is one timed interval. Spans of one op share op; a root span has
// parent -1. Replay spans have op -1.
type span struct {
	id, parent int64
	op         int64
	name       string
	start, end int64 // ns since the trace epoch
	tags       tagVec
}

// tracer keeps spans in memory until the run ends. Each client owns one, so
// recording never synchronises.
type tracer struct {
	epoch  time.Time
	prefix int64 // high bits that make span and op ids unique across tracers
	spans  []span
	nextOp int64
}

func newTracer(epoch time.Time, owner int) *tracer {
	return &tracer{epoch: epoch, prefix: int64(owner+1) << 40, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) int {
	s.id = t.prefix | int64(len(t.spans))
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// clientTrace records an op's root span and the span of its pmblade call.
type clientTrace struct {
	*tracer
	on    *atomic.Bool // shared: flipped between traced and untraced windows
	db    *pmblade.DB
	scope spanScope
}

// spanScope is the op in flight; a client runs one op at a time, so one
// scope per client is reused.
type spanScope struct {
	t      *clientTrace
	root   int
	kind   opKind
	before tagVec
	start  int64
}

var opSpanNames = [numOpKinds]string{"op.read", "op.write", "op.write", "op.scan"}
var callSpanNames = [numOpKinds]string{"pmblade.Get", "pmblade.Put", "pmblade.Put", "pmblade.Scan"}

func (t *clientTrace) beginOp(k opKind) *spanScope {
	op := t.prefix | t.nextOp
	t.nextOp++
	t.scope = spanScope{t: t, kind: k}
	t.scope.root = t.add(span{parent: -1, op: op, name: opSpanNames[k], start: t.now()})
	return &t.scope
}

func (s *spanScope) beginCall() {
	sampleTags(s.t.db, &s.before)
	s.start = s.t.now()
}

func (s *spanScope) endCall() {
	end := s.t.now()
	var after tagVec
	sampleTags(s.t.db, &after)
	root := &s.t.spans[s.root]
	c := span{parent: root.id, op: root.op, name: callSpanNames[s.kind], start: s.start, end: end}
	for i := range after {
		c.tags[i] = after[i] - s.before[i]
	}
	s.t.add(c)
}

func (s *spanScope) endOp() { s.t.spans[s.root].end = s.t.now() }

// timeBatches runs fn for calls 0..n-1 in batches of size batch, records one
// span per batch and returns the median time per call in ns. Batching keeps
// the clock reads from dominating sub-microsecond calls.
func (t *tracer) timeBatches(name string, n, batch int, fn func(i int)) float64 {
	var per []int64
	for i := 0; i+batch <= n; i += batch {
		start := t.now()
		for j := i; j < i+batch; j++ {
			fn(j)
		}
		end := t.now()
		t.add(span{parent: -1, op: -1, name: name, start: start, end: end})
		per = append(per, (end-start)/int64(batch))
	}
	return median(per)
}

// writeSpans writes every span, gzip-compressed, as one JSON object per
// line with its self time: its duration minus the durations of its
// children.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriterSize(z, 1<<20)
	var line []byte
	for _, t := range tracers {
		child := make(map[int64]int64)
		for i := range t.spans {
			if p := t.spans[i].parent; p >= 0 {
				child[p] += t.spans[i].end - t.spans[i].start
			}
		}
		for i := range t.spans {
			s := &t.spans[i]
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendInt(line, s.id, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, s.parent, 10)
			line = append(line, `,"op":`...)
			line = strconv.AppendInt(line, s.op, 10)
			line = append(line, `,"name":"`...)
			line = append(line, s.name...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"dur_ns":`...)
			line = strconv.AppendInt(line, s.end-s.start, 10)
			line = append(line, `,"self_ns":`...)
			line = strconv.AppendInt(line, s.end-s.start-child[s.id], 10)
			sep := byte('{')
			line = append(line, `,"tags":`...)
			for k, v := range s.tags {
				if v != 0 {
					line = append(line, sep, '"')
					line = append(line, tagNames[k]...)
					line = append(line, `":`...)
					line = strconv.AppendInt(line, v, 10)
					sep = ','
				}
			}
			if sep == '{' {
				line = append(line, '{')
			}
			line = append(line, "}}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := z.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
