package core_test

import (
	"fmt"

	"hotcalls/internal/core"
)

// The minimal HotCalls setup: a shared slot, a responder goroutine with a
// call table, and synchronous calls from the requester.
func ExampleHotCall() {
	var hc core.HotCall
	responder := core.NewResponder(&hc, []func(interface{}) uint64{
		func(d interface{}) uint64 { return d.(uint64) * 2 },
	})
	go responder.Run()
	defer hc.Stop()

	ret, err := hc.Call(0, uint64(21))
	fmt.Println(ret, err)
	// Output: 42 <nil>
}

// Asynchronous submission overlaps enclave work with the untrusted call:
// the fabric's requester keeps a window of calls in flight.
func ExampleRequester_SubmitV() {
	pool := core.NewCallPool([]core.PoolFunc{
		func(_ int, d uint64) uint64 { return d + 1 },
	}, core.PoolOptions{Shards: 1})
	pool.Start()
	defer pool.Stop()

	calls := []core.VecCall{{ID: 0, Data: 99}, {ID: 0, Data: 199}}
	batch, err := pool.Requester().SubmitV(calls)
	if err != nil {
		fmt.Println(err)
		return
	}
	// ... useful work here, while a responder executes ...
	rets := make([]uint64, len(calls))
	err = batch.WaitAll(rets)
	fmt.Println(rets, err)
	// Output: [100 200] <nil>
}

// The starvation mitigation of Section 4.2: when the requester's window
// stays full past the timeout, fall back to the regular SDK call path.
func ExampleRequester_CallOrFallback() {
	pool := core.NewCallPool([]core.PoolFunc{
		func(_ int, d uint64) uint64 { return d },
	}, core.PoolOptions{Shards: 1, SlotsPerShard: 1, Timeout: 3})
	r := pool.Requester()

	// No responder runs, so one posted call fills the window...
	if _, err := r.SubmitV([]core.VecCall{{Data: 1}}); err != nil {
		fmt.Println(err)
		return
	}
	// ...and this one runs out of attempts and takes the fallback (SDK) path.
	ret, err := r.CallOrFallback(core.VecCall{Data: 2}, func() (uint64, error) {
		return 7, nil // the SDK ocall would run here
	})
	fmt.Println(ret, err)
	// Output: 7 <nil>
}
