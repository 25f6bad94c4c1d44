package faultnet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// Proc supervises a child process for crash-injection tests: a shard
// (or whole shim) run out-of-process so the test can deliver a real
// SIGKILL mid-operation — no deferred cleanup, no flushed buffers,
// exactly the crash the snapshot+journal recovery path claims to
// survive.
type Proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// StartProc launches name with args. env entries are appended to the
// parent environment; stdout/stderr may be nil to discard output.
func StartProc(name string, args, env []string, stdout, stderr io.Writer) (*Proc, error) {
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("faultnet: start %s: %w", name, err)
	}
	p := &Proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed child's exit status says only that it was killed
		close(p.done)
	}()
	return p, nil
}

// Kill delivers SIGKILL — the child gets no chance to flush or clean
// up — and waits for the process to be reaped.
func (p *Proc) Kill() error {
	err := p.cmd.Process.Kill()
	<-p.done
	if err != nil && !alreadyFinished(err) {
		return err
	}
	return nil
}

func alreadyFinished(err error) bool {
	return errors.Is(err, os.ErrProcessDone)
}
