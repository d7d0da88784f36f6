package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"pmblade"
)

// testDataset builds a small dataset by hand: n loaded keys and their
// values, without the full-size streams.
func testDataset(n int) (*dataset, [][]byte) {
	d := &dataset{pool: make([]byte, fillPoolBytes+fillBytes)}
	for i := range d.pool {
		d.pool[i] = byte(i * 7)
	}
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		d.keys = append(d.keys, []byte{'k', byte(i >> 8), byte(i)})
		o := d.writeAt(opInsert, uint32(i), 1, uint32(i*13%fillPoolBytes))
		vals[i] = make([]byte, valueSize)
		writeValue(vals[i], d.pool, &o)
	}
	return d, vals
}

func TestCheckValue(t *testing.T) {
	_, vals := testDataset(4)
	if err := checkValue(vals[2], 2); err != nil {
		t.Fatalf("intact value rejected: %v", err)
	}
	if err := checkValue(vals[2], 3); !errors.Is(err, errWrongKey) {
		t.Errorf("value of another key: got %v", err)
	}
	bad := append([]byte(nil), vals[2]...)
	bad[500] ^= 1
	if err := checkValue(bad, 2); !errors.Is(err, errChecksum) {
		t.Errorf("flipped byte: got %v", err)
	}
	if err := checkValue(vals[2][:100], 2); !errors.Is(err, errChecksum) {
		t.Errorf("short value: got %v", err)
	}
}

func TestCheckScan(t *testing.T) {
	d, vals := testDataset(8)
	rows := func(idx ...int) []pmblade.KV {
		var out []pmblade.KV
		for _, i := range idx {
			out = append(out, pmblade.KV{Key: d.keys[i], Value: vals[i]})
		}
		return out
	}
	if err := checkScan(d, rows(2, 3, 4), 2, 3); err != nil {
		t.Fatalf("good scan rejected: %v", err)
	}
	cases := []struct {
		name string
		rows []pmblade.KV
		want error
	}{
		{"missing key", rows(2, 4, 5), errMissing},
		{"out of order", rows(2, 3, 1), errScanOrder},
		{"repeated key", rows(2, 3, 3), errScanOrder},
		{"before start", rows(1, 2, 3), errScanOrder},
		{"too few rows", rows(2, 3), errShortScan},
		{"too many rows", rows(2, 3, 4, 5), errShortScan},
	}
	for _, c := range cases {
		if err := checkScan(d, c.rows, 2, 3); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	wrong := rows(2, 3, 4)
	wrong[1].Value = vals[5]
	if err := checkScan(d, wrong, 2, 3); !errors.Is(err, errWrongKey) {
		t.Errorf("value of another key: got %v", err)
	}
	torn := rows(2, 3, 4)
	torn[2].Value = append([]byte(nil), vals[4]...)
	torn[2].Value[valueSize-1] ^= 0xff
	if err := checkScan(d, torn, 2, 3); !errors.Is(err, errChecksum) {
		t.Errorf("torn value: got %v", err)
	}
}

// TestClientCountsFailures runs ops through a client against a small
// database: a missing key and a wrong value count as failed ops.
func TestClientCountsFailures(t *testing.T) {
	d, vals := testDataset(4)
	db, err := pmblade.Open(pmblade.FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3; i++ { // key 3 is never written
		if err := db.Put(d.keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Put(d.keys[2], vals[1]); err != nil { // key 2 holds key 1's value
		t.Fatal(err)
	}
	c := newClient(db, d, nil)
	for _, o := range []op{{kind: opRead, key: 0}, {kind: opRead, key: 3}, {kind: opRead, key: 2}} {
		c.do(&o)
	}
	if c.attempted != 3 || c.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", c.attempted, c.failed)
	}
	if !errors.Is(c.firstErr, errMissing) {
		t.Errorf("first failure %v, want a missing key", c.firstErr)
	}
}

func TestTierFracsSumToOne(t *testing.T) {
	for _, d := range []tagVec{
		{tagReadMemtable: 3, tagReadPM: 5, tagReadSSD: 11},
		{tagReadPM: 1},
		{tagReadMemtable: 380, tagReadPM: 204, tagReadSSD: 416, tagReadMiss: 0},
	} {
		mem, pm, ssd := tierFracs(&d)
		if math.Abs(mem+pm+ssd-1) > 1e-12 {
			t.Errorf("%v: fractions %g+%g+%g do not sum to 1", d, mem, pm, ssd)
		}
	}
	var none tagVec
	if mem, pm, ssd := tierFracs(&none); mem+pm+ssd != 0 {
		t.Errorf("no reads: fractions %g %g %g, want 0", mem, pm, ssd)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and prints, and that every name
// and unit fits the grammar.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, run %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, printed %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		name(m.Name)
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: declared %+v, printed %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bad unit %q or bound %g", m.Name, m.Unit, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: declared %+v, printed %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}
}

// TestTracedMetricsComplete checks that the traced run measures every
// declared per-layer metric: the counter-derived ones, the replayed ones
// and the two it adds itself.
func TestTracedMetricsComplete(t *testing.T) {
	d, _ := testDataset(1)
	d.keys = d.keys[:0]
	for i := 0; i < 4*replayTable; i++ {
		d.keys = append(d.keys, []byte{'k', byte(i >> 16), byte(i >> 8), byte(i)})
	}
	s := make([]op, 32*replayTable)
	for i := range s {
		s[i] = op{kind: opRead, key: uint32(i * 7919 % len(d.keys))}
	}
	d.streams = [][]op{s}
	values := layerMetrics(snapshot{}, snapshot{}, nil, 0, 0)
	replayed, err := replayLayers(newTracer(time.Now(), 0), d)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range replayed {
		values[k] = v
	}
	values["ssd.io_p99_us"], values["trace.overhead_frac"] = 0, 0
	r, err := newResult(perLayer, values, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(values) {
		t.Errorf("measured %d metrics, declared %d", len(values), len(r.Metrics))
	}
	for _, k := range []string{"pmem.read_ns", "memtable.get_ns", "sstable.get_uncached_us", "wal.commit_us"} {
		if r.Metrics[k].Value <= 0 {
			t.Errorf("%s = %g, want a positive time", k, r.Metrics[k].Value)
		}
	}
	delete(values, "wal.commit_us")
	if _, err := newResult(perLayer, values, 1, 0); err == nil {
		t.Error("a missing metric was not reported")
	}
}
