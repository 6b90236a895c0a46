// Integration tests exercising the full stack the way a deployment would:
// platform bring-up, enclave build, the Figure 1 call flow over both
// interfaces, and enclave-to-enclave communication.
package hotcalls_test

import (
	"bytes"
	"testing"

	"hotcalls/internal/core"
	"hotcalls/internal/edl"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
)

// TestFullDeploymentLifecycle walks the story of Section 2: build an
// enclave and serve calls through both the SDK and HotCalls interfaces.
func TestFullDeploymentLifecycle(t *testing.T) {
	// --- Platform and enclave bring-up.
	platform := sgx.NewPlatform(12345)
	var clk sim.Clock
	enclave := platform.ECreate(&clk, 32<<20, 2)
	if err := enclave.EAdd(&clk, 0); err != nil {
		t.Fatal(err)
	}
	if err := enclave.EInit(&clk); err != nil {
		t.Fatal(err)
	}

	// --- Serve: the Figure 1 flow.  The trusted function consumes a
	// provisioned secret and reaches the OS through an ocall.
	secret := []byte("api-signing-key-0123456789abcdef")
	iface := edl.MustParse(`enclave {
		trusted { public int ecall_sign([in, size=len] uint8_t* msg, size_t len,
		                                [out, size=32] uint8_t* tag); };
		untrusted { long ocall_log_len(int n); };
	};`)
	rt := sdk.New(platform, enclave, iface)
	var logged uint64
	rt.MustBindOCall("ocall_log_len", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		logged = args[0].Scalar
		return 0
	})
	rt.MustBindECall("ecall_sign", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		// A toy MAC using the provisioned secret: XOR-fold (the point
		// is the data flow, not the cryptography).
		msg := args[0].Buf.Data
		tag := args[2].Buf.Data
		for i, b := range msg {
			tag[i%32] ^= b ^ secret[i%len(secret)]
		}
		if _, err := ctx.OCall("ocall_log_len", sdk.Scalar(uint64(len(msg)))); err != nil {
			panic(err)
		}
		return uint64(len(msg))
	})

	msg := rt.Arena.AllocBuffer(&clk, 128)
	for i := range msg.Data {
		msg.Data[i] = byte(i)
	}
	tag := rt.Arena.AllocBuffer(&clk, 32)

	var sdkClk sim.Clock
	n, err := rt.ECall(&sdkClk, "ecall_sign", sdk.Buf(msg), sdk.Scalar(128), sdk.Buf(tag))
	if err != nil || n != 128 || logged != 128 {
		t.Fatalf("sdk call: n=%d err=%v logged=%d", n, err, logged)
	}
	sdkTag := append([]byte(nil), tag.Data...)

	// The same call through HotCalls must produce the same answer,
	// faster.
	ch := core.NewChannel(rt, platform.RNG)
	for i := range tag.Data {
		tag.Data[i] = 0
	}
	var hotClk sim.Clock
	n, err = ch.HotECall(&hotClk, "ecall_sign", sdk.Buf(msg), sdk.Scalar(128), sdk.Buf(tag))
	if err != nil || n != 128 {
		t.Fatalf("hot call: n=%d err=%v", n, err)
	}
	if !bytes.Equal(sdkTag, tag.Data) {
		t.Fatal("SDK and HotCalls interfaces computed different results")
	}
	if hotClk.Now() >= sdkClk.Now() {
		t.Fatalf("HotCall (%d cycles) not faster than SDK call (%d)", hotClk.Now(), sdkClk.Now())
	}
}

// TestEnclaveToEnclave runs two enclaves on one platform that exchange
// data through untrusted memory — the Ryoan-style pattern Section 7
// cites, implemented with this library's primitives.
func TestEnclaveToEnclave(t *testing.T) {
	platform := sgx.NewPlatform(777)
	var clk sim.Clock
	build := func() *sgx.Enclave {
		e := platform.ECreate(&clk, 16<<20, 1)
		if err := e.EAdd(&clk, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.EInit(&clk); err != nil {
			t.Fatal(err)
		}
		return e
	}
	producer := build()
	consumer := build()

	// The producer's ocall hands data to untrusted code, which hot-calls
	// into the consumer — crossing two boundaries.
	prodRT := sdk.New(platform, producer, edl.MustParse(`enclave {
		trusted { public int ecall_produce(void); };
		untrusted { long ocall_forward([in, size=len] uint8_t* data, size_t len); };
	};`))
	consRT := sdk.New(platform, consumer, edl.MustParse(`enclave {
		trusted { public int ecall_consume([in, size=len] uint8_t* data, size_t len); };
		untrusted { };
	};`))
	consCh := core.NewChannel(consRT, platform.RNG)

	var received []byte
	consRT.MustBindECall("ecall_consume", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		received = append([]byte(nil), args[0].Buf.Data...)
		return uint64(len(received))
	})
	prodRT.MustBindOCall("ocall_forward", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		// Untrusted relay: the staging buffer is plain memory, which
		// is exactly what the consumer's [in] marshalling expects.
		n, err := consCh.HotECall(ctx.Clk, "ecall_consume", sdk.Buf(args[0].Buf), sdk.Scalar(args[1].Scalar))
		if err != nil {
			panic(err)
		}
		return n
	})
	prodRT.MustBindECall("ecall_produce", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		addr, err := producer.Alloc(ctx.Clk, 64)
		if err != nil {
			panic(err)
		}
		payload := &sdk.Buffer{Addr: addr, Data: bytes.Repeat([]byte{0xC3}, 64)}
		n, err := ctx.OCall("ocall_forward", sdk.Buf(payload), sdk.Scalar(64))
		if err != nil {
			panic(err)
		}
		return n
	})

	var callClk sim.Clock
	n, err := prodRT.ECall(&callClk, "ecall_produce")
	if err != nil || n != 64 {
		t.Fatalf("produce: n=%d err=%v", n, err)
	}
	if !bytes.Equal(received, bytes.Repeat([]byte{0xC3}, 64)) {
		t.Fatal("payload corrupted across two enclave boundaries")
	}
}
