//go:build sdkpoison

package sdk

const poisonStaging = true
