//go:build linux

package fleet

import (
	"os/exec"
	"syscall"
)

// dieWithParent asks the kernel to SIGKILL the child when the thread that
// starts it exits. A SIGKILLed or OOM-killed coordinator never cancels its
// children's contexts, so without this its shards outlive it and keep
// their journals open. The caller must keep that thread alive, by locking
// its goroutine to it, until the child has been waited for: Go may
// otherwise retire the thread while the child runs.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
