//go:build !sdkpoison

package sdk

// poisonStaging is the default of Runtime.poison.  Building the tests with
// -tags sdkpoison turns it on for every runtime in the process, which is
// how the core and application suites prove none of their handlers keeps a
// staged slice (`make test-poison`).
const poisonStaging = false
