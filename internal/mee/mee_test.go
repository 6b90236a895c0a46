package mee

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestDemandLoadExtraWarmTree(t *testing.T) {
	m := NewCostModel()
	// Repeated access to the same line keeps its metadata in the node
	// cache; steady-state extra must equal the pure decrypt latency
	// (Table 1 row 9: 400 - 308 = 92).
	m.DemandLoadExtra(100)
	got := m.DemandLoadExtra(100)
	if got != 92 {
		t.Fatalf("warm demand load extra = %v, want 92", got)
	}
}

func TestDemandStoreExtraWarmTree(t *testing.T) {
	m := NewCostModel()
	m.DemandStoreExtra(100)
	got := m.DemandStoreExtra(100)
	if got != 94 {
		t.Fatalf("warm demand store extra = %v, want 94", got)
	}
}

func TestColdMetadataCostsMore(t *testing.T) {
	m := NewCostModel()
	cold := m.DemandLoadExtra(100)
	warm := m.DemandLoadExtra(100)
	if cold <= warm {
		t.Fatalf("cold %v should exceed warm %v", cold, warm)
	}
}

// sweepExtra runs the steady-state metadata walk for a buffer of n lines
// and returns the average per-line extra cycles of a streaming read.
func sweepExtra(m *CostModel, lines int, write bool) float64 {
	var total float64
	// Iterate a few sweeps so the node cache reaches steady state, then
	// measure one.
	for iter := 0; iter < 4; iter++ {
		total = 0
		for l := 0; l < lines; l++ {
			if write {
				total += m.StreamStoreExtra(uint64(l), lines)
			} else {
				total += m.StreamLoadExtra(uint64(l), lines)
			}
		}
	}
	return total / float64(lines)
}

func TestFigure6OverheadGrowsWithFootprint(t *testing.T) {
	// Paper, Figure 6: encrypted read overhead for 2,4,8,16,32 KB is
	// 54.5%, 68%, 71%, 94%, 102%.  Our model must reproduce the 2 KB and
	// 32 KB endpoints closely and be monotonically non-decreasing.
	const plainPerLine = 22.7 // calibrated streaming read cost per line
	overheads := make([]float64, 0, 5)
	for _, kb := range []int{2, 4, 8, 16, 32} {
		m := NewCostModel()
		extra := sweepExtra(m, kb*1024/LineSize, false)
		overheads = append(overheads, extra/plainPerLine*100)
	}
	t.Logf("read overheads %%: %.1f (paper: 54.5, 68, 71, 94, 102)", overheads)
	if overheads[0] < 45 || overheads[0] > 65 {
		t.Errorf("2 KB overhead = %.1f%%, want ~54.5%%", overheads[0])
	}
	if overheads[4] < 85 || overheads[4] > 115 {
		t.Errorf("32 KB overhead = %.1f%%, want ~102%%", overheads[4])
	}
	for i := 1; i < len(overheads); i++ {
		if overheads[i] < overheads[i-1]-3 {
			t.Errorf("overhead not monotone: %v", overheads)
		}
	}
	if overheads[4] < overheads[0]*1.5 {
		t.Errorf("32 KB overhead should be well above 2 KB: %v", overheads)
	}
}

func TestFigure7WriteOverheadSmall(t *testing.T) {
	// Paper, Figure 7: encrypted write overhead is ~6% for buffers above
	// 1 KB (writes are pipelined and counter updates write-combined).
	const plainPerLine = 201.8 // 6458 cycles / 32 lines at 2 KB
	for _, kb := range []int{2, 8, 32} {
		m := NewCostModel()
		extra := sweepExtra(m, kb*1024/LineSize, true)
		ovh := extra / plainPerLine * 100
		if ovh < 3 || ovh > 12 {
			t.Errorf("%d KB write overhead = %.1f%%, want ~6%%", kb, ovh)
		}
	}
}

func TestTable1Row7ReadExtra(t *testing.T) {
	// 2 KB encrypted read: 1,124 vs 727 cycles -> extra 397 total.
	m := NewCostModel()
	extra := sweepExtra(m, 32, false) * 32
	if extra < 350 || extra > 450 {
		t.Errorf("2 KB read extra = %.0f, want ~397", extra)
	}
}

func TestFlushMetadataRestoresColdState(t *testing.T) {
	m := NewCostModel()
	m.DemandLoadExtra(100)
	warm := m.DemandLoadExtra(100)
	m.FlushMetadata()
	cold := m.DemandLoadExtra(100)
	if cold <= warm {
		t.Fatalf("flush did not restore cold state: cold=%v warm=%v", cold, warm)
	}
}

func TestNodeCacheStats(t *testing.T) {
	m := NewCostModel()
	m.DemandLoadExtra(0)
	acc, miss := m.NodeCacheStats()
	if acc == 0 || miss == 0 {
		t.Fatalf("stats = (%d, %d), want non-zero", acc, miss)
	}
}

// overfullLine returns the first line whose walk puts four of its five
// nodes in one 3-way set of the node cache, so the walk evicts one of its
// own nodes and a repeat of it misses again.
func overfullLine(t *testing.T) uint64 {
	sets := uint64(nodeCacheConfig.SizeBytes / nodeCacheConfig.LineSize / nodeCacheConfig.Ways)
	nodeSet := func(addr uint64) uint64 { return addr / LineSize % sets }
	for line := uint64(0); line < 1<<20; line += Arity {
		count := map[uint64]int{nodeSet(macNodeAddr(line)): 1}
		for level := 0; level < walkLevels; level++ {
			count[nodeSet(ctrNodeAddr(level, line))]++
		}
		for _, n := range count {
			if n > nodeCacheConfig.Ways {
				return line
			}
		}
	}
	t.Fatal("no line overfills a node-cache set")
	return 0
}

// TestRepeatWalkMatchesAlwaysWalk feeds the memoised model and a model
// that walks the tree on every call (its repeat memo cleared before each)
// the same seeded streams — runs of consecutive lines, jumps, returns to
// an earlier group, walks of a line whose nodes overfill a set, and
// FlushMetadata — through all four cost functions, and compares every
// returned cost and the node cache's statistics after every call.
func TestRepeatWalkMatchesAlwaysWalk(t *testing.T) {
	over := overfullLine(t)
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			got, ref := NewCostModel(), NewCostModel()
			r := rand.New(rand.NewSource(seed))
			var line uint64
			var earlier []uint64
			repeats := 0
			for i := 0; i < 20000; i++ {
				op := "next"
				switch k := r.Intn(100); {
				case k < 2:
					got.FlushMetadata()
					ref.FlushMetadata()
					continue
				case k < 10:
					op, line = "jump", uint64(r.Intn(1<<16))
				case k < 16 && len(earlier) > 0:
					op, line = "return", earlier[r.Intn(len(earlier))]+uint64(r.Intn(Arity))
				case k < 22:
					op, line = "overfull", over+uint64(r.Intn(Arity))
				default:
					line++
				}
				earlier = append(earlier, line/Arity*Arity)
				if got.repeat == line/Arity+1 {
					repeats++
				}
				ref.repeat = 0
				fp := 1 + r.Intn(512)
				var g, w float64
				switch r.Intn(4) {
				case 0:
					g, w = got.StreamLoadExtra(line, fp), ref.StreamLoadExtra(line, fp)
				case 1:
					g, w = got.StreamStoreExtra(line, fp), ref.StreamStoreExtra(line, fp)
				case 2:
					g, w = got.DemandLoadExtra(line), ref.DemandLoadExtra(line)
				case 3:
					g, w = got.DemandStoreExtra(line), ref.DemandStoreExtra(line)
				}
				ga, gm := got.NodeCacheStats()
				wa, wm := ref.NodeCacheStats()
				if g != w || ga != wa || gm != wm {
					t.Fatalf("call %d (%s, line %d): cost %v, stats (%d, %d); always-walk %v, (%d, %d)",
						i, op, line, g, ga, gm, w, wa, wm)
				}
			}
			if repeats < 1000 {
				t.Fatalf("only %d calls repeated the previous walk: the memo was hardly exercised", repeats)
			}
		})
	}
}
