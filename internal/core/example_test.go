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
func ExampleRequester_Submit() {
	pool := core.NewCallPool([]core.PoolFunc{
		func(_ int, d uint64) uint64 { return d + 1 },
	}, core.PoolOptions{Shards: 1})
	pool.Start()
	defer pool.Stop()

	pending, err := pool.Requester().Submit(0, 99)
	if err != nil {
		fmt.Println(err)
		return
	}
	// ... useful work here, while a responder executes ...
	ret, err := pending.Wait()
	fmt.Println(ret, err)
	// Output: 100 <nil>
}

// The starvation mitigation of Section 4.2: when the responder stays busy
// past the timeout, fall back to the regular SDK call path.
func ExampleHotCall_CallOrFallback() {
	var hc core.HotCall
	hc.Timeout = 1 << 20 // patience for the slow call's own submission
	busy, block := make(chan struct{}), make(chan struct{})
	responder := core.NewResponder(&hc, []func(interface{}) uint64{
		func(interface{}) uint64 { close(busy); <-block; return 1 },
	})
	go responder.Run()

	// Occupy the responder with a slow call from another thread...
	slow := make(chan struct{})
	go func() { hc.Call(0, nil); close(slow) }()
	<-busy
	// ...so this one runs out of attempts and takes the fallback (SDK) path.
	hc.Timeout = 3
	ret, err := hc.CallOrFallback(0, nil, func() (uint64, error) {
		return 7, nil // the SDK ocall would run here
	})
	fmt.Println(ret, err)

	close(block)
	<-slow
	hc.Stop()
	// Output: 7 <nil>
}
