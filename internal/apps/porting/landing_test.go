package porting_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/edl"
	"hotcalls/internal/sdk"
)

// TestLandingsBindEveryDeclaredOCall boots each port in every mode and
// resolves every ocall its EDL declares: the framework binds them all, and
// its landing set is exactly the ports' declared ocalls.  An ocall no
// landing function serves stays unbound, so calling it reports the name.
func TestLandingsBindEveryDeclaredOCall(t *testing.T) {
	ports := []struct {
		edl  string
		boot func(porting.Mode) *porting.App
	}{
		{memcached.EDL, func(m porting.Mode) *porting.App { return memcached.NewServer(m).App }},
		{lighttpd.EDL, func(m porting.Mode) *porting.App { return lighttpd.NewServer(m).App }},
		{openvpn.EDL, func(m porting.Mode) *porting.App { return openvpn.NewServer(m).App }},
	}
	var declared []string
	for _, p := range ports {
		for _, f := range edl.MustParse(p.edl).Untrusted {
			declared = append(declared, f.Name)
		}
		for _, mode := range porting.Modes {
			app := p.boot(mode)
			for _, f := range app.RT.EDL.Untrusted {
				if _, err := app.RT.UntrustedBinding(f.Name); err != nil {
					t.Errorf("%s: %v", mode, err)
				}
			}
		}
	}
	slices.Sort(declared)
	if got, want := porting.LandingNames(), slices.Compact(declared); !slices.Equal(got, want) {
		t.Errorf("landing functions for %v, want exactly the declared %v", got, want)
	}

	app := porting.New(porting.Native, porting.Config{Seed: 1}, `
enclave {
    trusted { public int ecall_entry(void); };
    untrusted {
        long ocall_socket(void);
        long ocall_mmap(size_t len);
    };
};`)
	if _, err := app.RT.UntrustedBinding("ocall_socket"); err != nil {
		t.Errorf("ocall_socket: %v", err)
	}
	if _, err := app.RT.UntrustedBinding("ocall_mmap"); !errors.Is(err, sdk.ErrNotBound) || !strings.Contains(err.Error(), "ocall_mmap") {
		t.Errorf("ocall_mmap: err = %v, want %v naming it", err, sdk.ErrNotBound)
	}
}
