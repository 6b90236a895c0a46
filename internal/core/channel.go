package core

import (
	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// Channel is the simulated-cycle HotCalls endpoint used by the experiment
// harness and the application simulations.  It performs calls against an
// sdk.Runtime's bound edge functions using the SDK's own marshalling code
// (sdk.StageOCallArgs / sdk.StageECallArgs — the Section 5 security
// argument), but replaces the EENTER/EEXIT context switches with the
// HotCalls spin-lock protocol, whose cost comes from LatencyModel.
//
// A HotOCall's untrusted landing function runs on the responder's core
// while the requester spins, so the requester-observed cost is the
// synchronization latency plus the handler's own execution time.
type Channel struct {
	RT    *sdk.Runtime
	Model *LatencyModel

	// tel caches the channel's telemetry handles; all nil (no-op) until
	// SetTelemetry attaches a registry.
	tel channelTel
}

// channelTel is the set of handles the HotCall channel paths touch.
type channelTel struct {
	ecalls, ocalls *telemetry.Counter
	spin           *telemetry.Counter
	cycles         *telemetry.Histogram
	tracer         *telemetry.Tracer
}

// NewChannel returns a HotCalls channel over the given runtime.
func NewChannel(rt *sdk.Runtime, rng *sim.RNG) *Channel {
	return &Channel{RT: rt, Model: NewLatencyModel(rng)}
}

// SetTelemetry attaches the observability registry to the channel:
// HotCall ecall/ocall counters, the round-trip cycle histogram, and
// (when tracing is enabled) one span per crossing.  A nil registry
// detaches.
func (ch *Channel) SetTelemetry(reg *telemetry.Registry) {
	ch.tel = channelTel{
		ecalls: reg.Counter(telemetry.MetricHotECalls),
		ocalls: reg.Counter(telemetry.MetricHotOCalls),
		spin:   reg.Counter(telemetry.MetricSpinCycles),
		cycles: reg.Histogram(telemetry.MetricHotCallCycles),
		tracer: reg.Tracer(),
	}
}

// HotOCall performs an out-call through the HotCalls interface: the
// trusted side marshals with the SDK-generated code, signals the request
// through shared plaintext memory, and the untrusted responder executes
// the landing function.
func (ch *Channel) HotOCall(clk *sim.Clock, name string, args ...sdk.Arg) (uint64, error) {
	b, err := ch.RT.UntrustedBinding(name)
	if err != nil {
		return 0, err
	}
	return ch.hotCall(clk, b, args, false)
}

// HotECall performs an enclave call through the HotCalls interface: the
// responder thread inside the enclave polls for requests, so no EENTER is
// needed.  Marshalling again reuses the SDK code path.
func (ch *Channel) HotECall(clk *sim.Clock, name string, args ...sdk.Arg) (uint64, error) {
	b, err := ch.RT.TrustedBinding(name)
	if err != nil {
		return 0, err
	}
	return ch.hotCall(clk, b, args, true)
}

// hotCall is the protocol both directions share: count the call on its
// binding, stage the arguments, pay the synchronization, run the handler
// on the responder's core, copy out.  Only the staging direction, the
// handler's router and the labels differ.
func (ch *Channel) hotCall(clk *sim.Clock, b *sdk.Binding, args []sdk.Arg, ecall bool) (uint64, error) {
	name := b.Decl.Name
	calls, span, label := ch.tel.ocalls, telemetry.KindHotOCall, "hotocall:"
	// An ecall's handler runs on the resident enclave worker; its own
	// ocalls route back through this channel.
	var router sdk.OCallRouter
	if ecall {
		calls, span, label, router = ch.tel.ecalls, telemetry.KindHotECall, "hotecall:", ch
	}
	b.Count()
	calls.Inc()
	callStart := clk.Now()

	tr := ch.tel.tracer
	deep := tr.Detailed()
	var staged []sdk.Arg
	var finish func()
	var err error
	if ecall {
		staged, finish, err = ch.RT.StageECallArgs(clk, b.Decl, args)
	} else {
		staged, finish, err = ch.RT.StageOCallArgs(clk, b.Decl, args)
	}
	if err != nil {
		return 0, err
	}
	if deep && clk.Now() > callStart {
		tr.Emit(telemetry.KindMarshal, "stage:"+name, callStart, clk.Since(callStart), 0)
	}
	// Synchronization: request submission, responder pickup, completion
	// polling.  The handler runs on the responder core while the
	// requester spins, so its execution time adds to the observed
	// latency.
	spinStart := clk.Now()
	clk.AdvanceF(ch.Model.Sample())
	ch.tel.spin.Add(clk.Since(spinStart))
	if deep {
		tr.Emit(telemetry.KindSpin, "hotcall-sync", spinStart, clk.Since(spinStart), 0)
	}
	handlerStart := clk.Now()
	// The handler runs on the staged call's own context (reused per call
	// depth: it must not keep it) and its own clock.
	ctx := ch.RT.HandlerCtx(router)
	ret := b.Fn(ctx, staged)
	clk.Advance(ctx.Clk.Now())
	if deep && clk.Now() > handlerStart {
		// The handler body ran on the responder's own clock; its span is
		// re-anchored on the requester timeline.
		tr.Emit(telemetry.KindHandler, "handler:"+name, handlerStart, clk.Since(handlerStart), 0)
	}

	copyOutStart := clk.Now()
	finish()
	if deep && clk.Now() > copyOutStart {
		tr.Emit(telemetry.KindMarshal, "copyout:"+name, copyOutStart, clk.Since(copyOutStart), 0)
	}
	ch.tel.cycles.ObserveSince(callStart, clk.Now())
	if tr != nil {
		tr.Emit(span, label+name, callStart, clk.Since(callStart), 0)
	}
	return ret, nil
}

// RouteOCall implements sdk.OCallRouter: out-calls from handlers running
// under HotCalls go through the shared-memory channel.
func (ch *Channel) RouteOCall(clk *sim.Clock, name string, args ...sdk.Arg) (uint64, error) {
	return ch.HotOCall(clk, name, args...)
}
