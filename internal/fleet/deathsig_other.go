//go:build !linux

package fleet

import "os/exec"

// dieWithParent does nothing where the kernel offers no parent-death
// signal: a killed coordinator's shards there outlive it.
func dieWithParent(*exec.Cmd) {}
