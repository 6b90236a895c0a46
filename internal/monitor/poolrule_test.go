package monitor

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotcalls/internal/core"
	"hotcalls/internal/telemetry"
)

// poolSample fabricates the newest sample a PoolSaturationRule sees.
func poolSample(live, max, occMilli int64, dTimeouts uint64) []Sample {
	return []Sample{{
		Seq: 1, When: time.Unix(0, 0),
		PoolResponders:     live,
		PoolRespondersMax:  max,
		PoolOccupancyMilli: occMilli,
		DTimeouts:          dTimeouts,
	}}
}

func TestPoolSaturationRule(t *testing.T) {
	r := &PoolSaturationRule{}

	if ev := r.Evaluate(nil); ev != nil {
		t.Fatalf("empty window fired: %+v", ev)
	}
	if ev := r.Evaluate(poolSample(0, 0, 900, 0)); ev != nil {
		t.Fatalf("no fabric attached (max=0) fired: %+v", ev)
	}
	if ev := r.Evaluate(poolSample(2, 4, 900, 0)); ev != nil {
		t.Fatalf("pool with headroom fired: %+v", ev)
	}
	if ev := r.Evaluate(poolSample(4, 4, 100, 0)); ev != nil {
		t.Fatalf("pool at max but idle fired: %+v", ev)
	}

	ev := r.Evaluate(poolSample(4, 4, 900, 0))
	if len(ev) != 1 || ev[0].Severity != Warning {
		t.Fatalf("saturated pool: got %+v, want one Warning", ev)
	}
	if !strings.Contains(ev[0].Diagnosis, "4/4 responders") {
		t.Fatalf("diagnosis missing live/max: %q", ev[0].Diagnosis)
	}

	ev = r.Evaluate(poolSample(4, 4, 900, 3))
	if len(ev) != 1 || ev[0].Severity != Critical {
		t.Fatalf("saturated pool with timeouts: got %+v, want Critical", ev)
	}
}

// TestPoolSaturationEndToEnd drives a real CallPool pinned at one
// responder hard enough that the monitor's sampled gauges trip the rule
// through the standard Tick path — fabric → telemetry → sampler → rule,
// no fabricated samples.
func TestPoolSaturationEndToEnd(t *testing.T) {
	// Four requesters keep full 64-deep rings posted against the one
	// responder, so its scan passes find work faster than it drains it.
	const shards, window = 4, 64
	reg := telemetry.New()
	p := core.NewCallPool(
		[]core.PoolFunc{func(_ int, d uint64) uint64 { return d }},
		core.PoolOptions{Shards: shards, SlotsPerShard: window, MaxResponders: 1, Timeout: 1 << 20})
	p.SetTelemetry(reg)
	p.Start()
	defer p.Stop()

	m := New(reg, Options{})
	m.Tick() // baseline

	var stop atomic.Bool
	var load sync.WaitGroup
	for range shards {
		r := p.Requester()
		load.Add(1)
		go func() {
			defer load.Done()
			pending := make([]*core.PoolPending, 0, window)
			for i := uint64(0); !stop.Load(); {
				for len(pending) < window {
					pd, err := r.Submit(0, i)
					if err != nil {
						return
					}
					pending = append(pending, pd)
					i++
				}
				for _, pd := range pending {
					pd.Wait()
				}
				pending = pending[:0]
			}
			for _, pd := range pending {
				pd.Poll()
			}
		}()
	}

	// The occupancy gauge updates once per control window; give the
	// saturated pool a few monitor intervals to show it.
	deadline := time.Now().Add(5 * time.Second)
	var fired bool
	for time.Now().Before(deadline) && !fired {
		time.Sleep(time.Millisecond)
		s := m.Tick()
		for _, ev := range (&PoolSaturationRule{}).Evaluate([]Sample{s}) {
			if ev.Rule == "pool-saturation" {
				fired = true
			}
		}
	}
	stop.Store(true)
	load.Wait()
	if !fired {
		t.Fatal("pool-saturation rule never fired on a pinned, saturated pool")
	}
}
