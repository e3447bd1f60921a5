//go:build race

package main

// The race detector's instrumentation runs outside Go frames, so profiles of
// a race build lose the stacks that bucketing reads.
func init() { raceBuild = true }
