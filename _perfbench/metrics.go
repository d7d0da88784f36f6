package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"pmblade"
	"pmblade/internal/device"
	"pmblade/internal/sstable"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a self-test keeps them in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.2},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p95_us", "us", "lower", 0.1},
	{"write_p50_us", "us", "lower", 0.05},
	{"write_p95_us", "us", "lower", 0.25},
	{"scan_p50_us", "us", "lower", 0.25},
	{"scan_p95_us", "us", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.25},
	{"space_amp", "ratio", "lower", 0.2},
	{"live_heap_mb", "MiB", "lower", 0.05},
}

// perLayer are the metrics of the traced run (--trace 1).
var perLayer = []metricDef{
	{name: "engine.get_tier_memtable_frac", unit: "ratio", better: "higher"},
	{name: "engine.get_tier_pm_frac", unit: "ratio", better: "higher"},
	{name: "engine.get_tier_ssd_frac", unit: "ratio", better: "lower"},
	{name: "engine.get_memtable_us", unit: "us", better: "lower"},
	{name: "engine.get_pm_us", unit: "us", better: "lower"},
	{name: "engine.get_ssd_us", unit: "us", better: "lower"},
	{name: "engine.write_stall_s", unit: "s", better: "lower"},
	{name: "engine.partitions_per_scan", unit: "count", better: "lower"},
	{name: "memtable.get_ns", unit: "ns", better: "lower"},
	{name: "memtable.add_ns", unit: "ns", better: "lower"},
	{name: "wal.writers_per_commit", unit: "count", better: "higher"},
	{name: "wal.bytes_per_write", unit: "B", better: "lower"},
	{name: "wal.commit_us", unit: "us", better: "lower"},
	{name: "level0.tables_probed_per_get", unit: "count", better: "lower"},
	{name: "level0.filter_skip_ratio", unit: "ratio", better: "higher"},
	{name: "pmtable.get_ns", unit: "ns", better: "lower"},
	{name: "pmtable.build_mb_s", unit: "MiB/s", better: "higher"},
	{name: "bloom.may_contain_ns", unit: "ns", better: "lower"},
	{name: "sstable.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sstable.cache_evictions_per_op", unit: "count", better: "lower"},
	{name: "sstable.get_cached_us", unit: "us", better: "lower"},
	{name: "sstable.get_uncached_us", unit: "us", better: "lower"},
	{name: "rangeindex.view_hit_ratio", unit: "ratio", better: "higher"},
	{name: "rangeindex.builds", unit: "count", better: "lower"},
	{name: "rangeindex.build_s", unit: "s", better: "lower"},
	{name: "rangeindex.seek_ns", unit: "ns", better: "lower"},
	{name: "rangeindex.next_ns", unit: "ns", better: "lower"},
	{name: "compaction.flush_count", unit: "count", better: "lower"},
	{name: "compaction.internal_count", unit: "count", better: "lower"},
	{name: "compaction.major_count", unit: "count", better: "lower"},
	{name: "compaction.eviction_count", unit: "count", better: "lower"},
	{name: "compaction.victim_stall_s", unit: "s", better: "lower"},
	{name: "sched.cpu_busy_s", unit: "s", better: "lower"},
	{name: "costmodel.select_preserved_us", unit: "us", better: "lower"},
	{name: "pmem.busy_s", unit: "s", better: "lower"},
	{name: "pmem.client_read_bytes_per_op", unit: "B", better: "lower"},
	{name: "pmem.write_bytes_flush", unit: "B", better: "lower"},
	{name: "pmem.write_bytes_internal", unit: "B", better: "lower"},
	{name: "pmem.read_ns", unit: "ns", better: "lower"},
	{name: "ssd.busy_s", unit: "s", better: "lower"},
	{name: "ssd.client_read_ops_per_op", unit: "count", better: "lower"},
	{name: "ssd.write_bytes_major", unit: "B", better: "lower"},
	{name: "ssd.write_bytes_wal", unit: "B", better: "lower"},
	{name: "ssd.io_p99_us", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// snapshot holds the cumulative counters of the engine, its devices and its
// scheduler at one instant; per-layer metrics are deltas between two.
type snapshot struct {
	tags                                  tagVec
	flushes, internals, majors, evictions int64
	writeStall, victimStall               int64 // ns
	walCommits, walBatches                int64
	viewBuilds, viewBuildNs               int64
	cache                                 sstable.CacheStats
	cpuBusy, pmBusy, ssdBusy              time.Duration
	pmFlush, pmInternal, ssdMajor, ssdWAL int64
}

func takeSnapshot(db *pmblade.DB) snapshot {
	m := db.Metrics()
	eng := db.Engine()
	pm, sd := eng.PMDevice().Stats(), eng.SSDDevice().Stats()
	var s snapshot
	sampleTags(db, &s.tags)
	s.flushes = m.FlushCount.Load()
	s.internals = m.InternalCount.Load()
	s.majors = m.MajorCount.Load()
	s.evictions = m.EvictionCount.Load()
	s.writeStall = m.WriteStallNanos.Load()
	s.victimStall = m.VictimStallNanos.Load()
	s.walCommits = m.WALCommitCount.Load()
	s.walBatches = m.WALCommitBatches.Load()
	s.viewBuilds = m.RangeViewBuilds.Load()
	s.viewBuildNs = m.RangeViewBuildNanos.Load()
	s.cache = m.CacheStats()
	s.cpuBusy = eng.Pool().CPUBusy()
	s.pmBusy = pm.BusyTime()
	s.ssdBusy = sd.BusyTime()
	s.pmFlush = pm.WriteBytes(device.CauseFlush)
	s.pmInternal = pm.WriteBytes(device.CauseInternal)
	s.ssdMajor = sd.WriteBytes(device.CauseMajor)
	s.ssdWAL = sd.WriteBytes(device.CauseWAL)
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return float64(s[len(s)/2])
	}
	return float64(s[len(s)/2-1]+s[len(s)/2]) / 2
}

// tierFracs returns the fractions of the Gets in a tag delta served by the
// memtable, PM and SSD. They sum to 1 whenever any Get was served.
func tierFracs(d *tagVec) (mem, pm, ssd float64) {
	n := float64(d[tagReadMemtable] + d[tagReadPM] + d[tagReadSSD])
	return ratio(float64(d[tagReadMemtable]), n), ratio(float64(d[tagReadPM]), n), ratio(float64(d[tagReadSSD]), n)
}

// layerMetrics derives the counter-based per-layer metrics from the
// snapshots around the measured window and the call spans inside it.
// ops and writes count the ops of the window.
func layerMetrics(a, b snapshot, calls []span, ops, writes int64) map[string]float64 {
	var d tagVec
	for i := range d {
		d[i] = b.tags[i] - a.tags[i]
	}
	out := map[string]float64{}
	out["engine.get_tier_memtable_frac"], out["engine.get_tier_pm_frac"], out["engine.get_tier_ssd_frac"] = tierFracs(&d)

	// Get latency by serving tier, from the calls whose tag delta shows
	// exactly one resolved Get: with concurrent clients, a call during
	// which another Get also resolved cannot be attributed and is skipped.
	var byTier [3][]int64
	var scans, scanParts int64
	for i := range calls {
		c := &calls[i]
		switch c.name {
		case "pmblade.Get":
			if c.tags.reads() != 1 {
				continue
			}
			for t := tagReadMemtable; t <= tagReadSSD; t++ {
				if c.tags[t] == 1 {
					byTier[t-tagReadMemtable] = append(byTier[t-tagReadMemtable], c.end-c.start)
				}
			}
		case "pmblade.Scan":
			scans++
			scanParts += c.tags[tagViewHits] + c.tags[tagViewFallbacks]
		}
	}
	out["engine.get_memtable_us"] = median(byTier[0]) / 1e3
	out["engine.get_pm_us"] = median(byTier[1]) / 1e3
	out["engine.get_ssd_us"] = median(byTier[2]) / 1e3
	out["engine.partitions_per_scan"] = ratio(float64(scanParts), float64(scans))
	out["engine.write_stall_s"] = float64(b.writeStall-a.writeStall) / 1e9

	out["wal.writers_per_commit"] = ratio(float64(b.walBatches-a.walBatches), float64(b.walCommits-a.walCommits))
	out["wal.bytes_per_write"] = ratio(float64(b.ssdWAL-a.ssdWAL), float64(writes))

	out["level0.tables_probed_per_get"] = ratio(float64(d[tagL0Probed]), float64(d.reads()))
	out["level0.filter_skip_ratio"] = ratio(float64(d[tagFilterSkips]), float64(d[tagFilterSkips]+d[tagFilterHits]))

	hits, misses := b.cache.Hits-a.cache.Hits, b.cache.Misses-a.cache.Misses
	out["sstable.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	out["sstable.cache_evictions_per_op"] = ratio(float64(b.cache.Evictions-a.cache.Evictions), float64(ops))

	out["rangeindex.view_hit_ratio"] = ratio(float64(d[tagViewHits]), float64(d[tagViewHits]+d[tagViewFallbacks]))
	out["rangeindex.builds"] = float64(b.viewBuilds - a.viewBuilds)
	out["rangeindex.build_s"] = float64(b.viewBuildNs-a.viewBuildNs) / 1e9

	out["compaction.flush_count"] = float64(b.flushes - a.flushes)
	out["compaction.internal_count"] = float64(b.internals - a.internals)
	out["compaction.major_count"] = float64(b.majors - a.majors)
	out["compaction.eviction_count"] = float64(b.evictions - a.evictions)
	out["compaction.victim_stall_s"] = float64(b.victimStall-a.victimStall) / 1e9
	out["sched.cpu_busy_s"] = (b.cpuBusy - a.cpuBusy).Seconds()

	out["pmem.busy_s"] = (b.pmBusy - a.pmBusy).Seconds()
	out["pmem.client_read_bytes_per_op"] = ratio(float64(d[tagPMClientReadBytes]), float64(ops))
	out["pmem.write_bytes_flush"] = float64(b.pmFlush - a.pmFlush)
	out["pmem.write_bytes_internal"] = float64(b.pmInternal - a.pmInternal)
	out["ssd.busy_s"] = (b.ssdBusy - a.ssdBusy).Seconds()
	out["ssd.client_read_ops_per_op"] = ratio(float64(d[tagSSDClientReadOps]), float64(ops))
	out["ssd.write_bytes_major"] = float64(b.ssdMajor - a.ssdMajor)
	out["ssd.write_bytes_wal"] = float64(b.ssdWAL - a.ssdWAL)
	return out
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult picks the declared metrics out of values. A declared metric
// missing from values is a bug in the benchmark.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int64) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.name)
		}
		r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return r, nil
}

func (r result) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
