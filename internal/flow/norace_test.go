//go:build !race

package flow_test

// raceBuild reports a -race build, whose sync.Pool drops puts at random.
const raceBuild = false
