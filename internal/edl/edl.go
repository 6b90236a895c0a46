// Package edl parses the Enclave Definition Language, the Intel-provided
// syntax in which SGX developers declare their edge functions (ecalls and
// ocalls), the parameters they take, and each pointer's marshalling
// attributes ([in], [out], [in, out], [user_check], [size=n], [count=n],
// [string]).  Intel's edger8r tool consumes these declarations to generate
// the trusted and untrusted glue code whose cost the paper measures in
// Section 3.2.1; the sdk package applies that glue from the parsed
// declarations at call time.
package edl

import "fmt"

// Direction is a pointer parameter's marshalling attribute.
type Direction int

// Pointer directions, Section 3.2.1 of the paper.  For ecalls, In copies
// the buffer into the enclave and Out copies it back out (after zeroing the
// enclave staging buffer).  For ocalls the perspective flips: In copies
// from the enclave out to the untrusted stack, Out zeroes an untrusted
// staging buffer and copies it into the enclave on return.
const (
	UserCheck Direction = iota // zero copy, no checks
	In
	Out
	InOut
	// ZeroCopy marks a buffer that lives in a pre-registered shared
	// payload ring (sdk.Runtime.RegisterSharedRing): the edge glue skips
	// both the staging allocation and the per-byte copies and only
	// verifies the pointer lies inside a registered ring region.  Unlike
	// [user_check] the runtime still range-checks the buffer, so a
	// ZeroCopy parameter that does not point into a ring is rejected
	// rather than silently passed through.
	ZeroCopy
)

func (d Direction) String() string {
	switch d {
	case UserCheck:
		return "user_check"
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "in, out"
	case ZeroCopy:
		return "zerocopy"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Param is one declared parameter of an edge function.
type Param struct {
	Name      string
	Type      string // C type spelling, e.g. "uint8_t" or "size_t"
	Pointer   bool
	Direction Direction // meaningful only for pointers
	SizeParam string    // [size=param]: byte length given by another param
	SizeConst uint64    // [size=N]: fixed byte length
	CountParm string    // [count=param]: element count
	IsString  bool      // [string]: NUL-terminated, length discovered
}

// Func is one declared edge function.
type Func struct {
	Name    string
	Ret     string // return C type or "void"
	Public  bool   // trusted functions may be declared public
	Params  []Param
	Allowed []string // ocall: ecalls this function may re-enter with
}

// File is a parsed EDL file: the trusted block declares ecalls, the
// untrusted block declares ocalls.
type File struct {
	Trusted   []Func
	Untrusted []Func
}

// TrustedFunc returns the declared ecall with the given name, or nil.
func (f *File) TrustedFunc(name string) *Func {
	for i := range f.Trusted {
		if f.Trusted[i].Name == name {
			return &f.Trusted[i]
		}
	}
	return nil
}

// UntrustedFunc returns the declared ocall with the given name, or nil.
func (f *File) UntrustedFunc(name string) *Func {
	for i := range f.Untrusted {
		if f.Untrusted[i].Name == name {
			return &f.Untrusted[i]
		}
	}
	return nil
}

// Validate checks cross-references: every [size=x]/[count=x] attribute must
// name a scalar parameter of the same function, directions may only
// decorate pointers, and names must be unique per block.
func (f *File) Validate() error {
	for _, block := range [][]Func{f.Trusted, f.Untrusted} {
		seen := make(map[string]bool)
		for _, fn := range block {
			if seen[fn.Name] {
				return fmt.Errorf("edl: duplicate function %q", fn.Name)
			}
			seen[fn.Name] = true
			if err := validateFunc(&fn); err != nil {
				return err
			}
		}
	}
	for _, fn := range f.Untrusted {
		for _, allowed := range fn.Allowed {
			if f.TrustedFunc(allowed) == nil {
				return fmt.Errorf("edl: %s allows unknown ecall %q", fn.Name, allowed)
			}
		}
	}
	return nil
}

func validateFunc(fn *Func) error {
	params := make(map[string]*Param)
	for i := range fn.Params {
		p := &fn.Params[i]
		if params[p.Name] != nil {
			return fmt.Errorf("edl: %s: duplicate parameter %q", fn.Name, p.Name)
		}
		params[p.Name] = p
	}
	for i := range fn.Params {
		p := &fn.Params[i]
		if !p.Pointer {
			if p.Direction != UserCheck || p.SizeParam != "" || p.IsString {
				return fmt.Errorf("edl: %s: attribute on non-pointer %q", fn.Name, p.Name)
			}
			continue
		}
		if p.IsString && (p.Direction == UserCheck || p.Direction == ZeroCopy) {
			return fmt.Errorf("edl: %s: [string] requires a copy direction on %q", fn.Name, p.Name)
		}
		for _, ref := range []string{p.SizeParam, p.CountParm} {
			if ref == "" {
				continue
			}
			r, ok := params[ref]
			if !ok {
				return fmt.Errorf("edl: %s: %q references unknown parameter %q", fn.Name, p.Name, ref)
			}
			if r.Pointer {
				return fmt.Errorf("edl: %s: size/count parameter %q must be a scalar", fn.Name, ref)
			}
		}
	}
	return nil
}
