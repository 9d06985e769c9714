package ycsb

import (
	"math"
	"testing"

	"dramhit/internal/table"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "a", "f"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("Z"); err == nil {
		t.Error("ByName(Z) should fail")
	}
}

func TestMixProportionsSumToOne(t *testing.T) {
	for _, m := range []Mix{A, B, C, D, E, F} {
		sum := 0.0
		for _, p := range m.Proportions() {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("workload %s proportions sum to %f", m.Name, sum)
		}
	}
}

func TestGeneratorHonorsMix(t *testing.T) {
	const n = 100_000
	for _, m := range []Mix{A, B, E, F} {
		g := NewGenerator(m, 10_000, 1)
		counts := map[OpKind]int{}
		for i := 0; i < n; i++ {
			op := g.Next()
			counts[op.Kind]++
			if op.Kind == Scan && (op.ScanLen < 1 || op.ScanLen > 100) {
				t.Fatalf("scan length %d out of range", op.ScanLen)
			}
		}
		for kind, want := range m.Proportions() {
			got := float64(counts[kind]) / n
			if math.Abs(got-want) > 0.01 {
				t.Errorf("workload %s: %v proportion %.3f, want %.2f", m.Name, kind, got, want)
			}
		}
	}
}

func TestZipfianSkewPresent(t *testing.T) {
	g := NewGenerator(C, 100_000, 2)
	counts := map[uint64]int{}
	for i := 0; i < 50_000; i++ {
		counts[g.Next().Key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Under theta 0.99 the hottest key draws a large multiple of the mean.
	if max < 200 {
		t.Errorf("hottest key only %d hits; zipfian skew missing", max)
	}
}

func TestInsertsAreFreshKeys(t *testing.T) {
	g := NewGenerator(D, 1000, 3)
	load := map[uint64]bool{}
	for _, k := range LoadKeys(1000, 3) {
		load[k] = true
	}
	seen := map[uint64]bool{}
	for i := 0; i < 20_000; i++ {
		op := g.Next()
		if op.Kind != Insert {
			continue
		}
		if load[op.Key] {
			t.Fatal("insert collided with a loaded key")
		}
		if seen[op.Key] {
			t.Fatal("insert key repeated")
		}
		seen[op.Key] = true
	}
	if len(seen) == 0 {
		t.Fatal("workload D produced no inserts")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(A, 1000, 9)
	b := NewGenerator(A, 1000, 9)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

// TestRunAgainstTable smoke-runs workload A against a real table via the
// conventional op mapping.
func TestRunAgainstTable(t *testing.T) {
	var m table.Map = newTestTable()
	for _, k := range LoadKeys(4096, 5) {
		m.Put(k, 1)
	}
	g := NewGenerator(A, 4096, 5)
	for i := 0; i < 20_000; i++ {
		op := g.Next()
		switch op.Kind {
		case Read:
			m.Get(op.Key)
		case Update:
			m.Put(op.Key, uint64(i))
		case Insert:
			m.Put(op.Key, 1)
		case ReadModifyWrite:
			if v, ok := m.Get(op.Key); ok {
				m.Put(op.Key, v+1)
			}
		case Scan:
			for j := 0; j < op.ScanLen; j++ {
				m.Get(op.Key + uint64(j))
			}
		}
	}
	if m.Len() == 0 {
		t.Fatal("table empty after workload")
	}
}

func newTestTable() table.Map {
	return tblFactory()
}

// TestGeneratorMissReadsAreAbsent checks the -missratio plumbing: redirected
// reads must never hit a loaded key or any key an Insert op (same seed) can
// produce, and miss=0 must reproduce the plain generator exactly.
func TestGeneratorMissReadsAreAbsent(t *testing.T) {
	const records, seed = 1000, 3
	reachable := map[uint64]bool{}
	for _, k := range LoadKeys(records, seed) {
		reachable[k] = true
	}
	// Workload D inserts fresh keys as it runs; collect the keys a miss-free
	// twin produces so the miss stream can be checked against all of them.
	twin := NewGenerator(D, records, seed)
	for i := 0; i < 50_000; i++ {
		reachable[twin.Next().Key] = true
	}
	g := NewGeneratorMiss(D, records, seed, 0.5)
	missed := 0
	reads := 0
	for i := 0; i < 50_000; i++ {
		op := g.Next()
		if op.Kind != Read {
			continue
		}
		reads++
		if !reachable[op.Key] {
			missed++
		}
	}
	if reads == 0 {
		t.Fatal("workload D produced no reads")
	}
	frac := float64(missed) / float64(reads)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("miss fraction %.3f, want ~0.50", frac)
	}

	a := NewGenerator(A, records, seed)
	b := NewGeneratorMiss(A, records, seed, 0)
	for i := 0; i < 2000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("miss=0 generator diverged from plain generator")
		}
	}
}

// TestStreamGeneratorsShareLoadKeys pins what concurrent client streams
// must satisfy for a run to measure the workload it names: every stream's
// reads and updates land on loaded keys (at missratio 0 nothing misses),
// redirected misses land on no loaded or inserted key, the streams' draws
// differ, and their inserts never collide with each other or the load.
func TestStreamGeneratorsShareLoadKeys(t *testing.T) {
	const records, streams, seed = 2000, 4, 1
	load := map[uint64]bool{}
	for _, k := range LoadKeys(records, seed) {
		load[k] = true
	}
	for _, miss := range []float64{0, 0.25} {
		inserted := map[uint64]bool{}
		var firsts []uint64
		var missKeys []uint64
		for s := 0; s < streams; s++ {
			mix := Mix{Name: "mixed", Read: 0.6, Update: 0.2, Insert: 0.2, Zipfian: true}
			g := NewStreamGenerator(mix, records, seed, s, streams, miss, -1)
			reads, hits := 0, 0
			for i := 0; i < 20000; i++ {
				op := g.Next()
				if i == 0 {
					firsts = append(firsts, op.Key)
				}
				switch op.Kind {
				case Read:
					reads++
					if load[op.Key] {
						hits++
					} else {
						missKeys = append(missKeys, op.Key)
					}
				case Update:
					if !load[op.Key] {
						t.Fatalf("stream %d updated a key outside the load", s)
					}
				case Insert:
					if load[op.Key] || inserted[op.Key] {
						t.Fatalf("stream %d inserted a loaded or already inserted key", s)
					}
					inserted[op.Key] = true
				}
			}
			rate := float64(hits) / float64(reads)
			if math.Abs(rate-(1-miss)) > 0.02 {
				t.Fatalf("miss %.2f stream %d: read hit rate %.3f", miss, s, rate)
			}
		}
		for _, k := range missKeys {
			if inserted[k] {
				t.Fatal("a redirected miss named an inserted key")
			}
		}
		if firsts[0] == firsts[1] && firsts[1] == firsts[2] && firsts[2] == firsts[3] {
			t.Fatal("streams draw identical sequences")
		}
	}
}
