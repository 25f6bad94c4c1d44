// Command bf4-shim runs the runtime sanitization shim: a P4Runtime-like
// TCP server that validates every controller update against the
// assertions bf4 inferred at compile time, maintaining shadow tables and
// rejecting rules that would make a bug reachable (paper §4.4).
//
// Usage:
//
//	bf4-shim -spec assertions.json -listen :9559 [-program prog.p4]
//
// With -program (or -corpus/-switch-scale) the shim also embeds the
// dataplane simulator, enabling "packet" requests that execute against
// the current shadow snapshot.
//
// The shim serves a fleet: one shadow-state shard per switch id listed
// in -shards (default one, sw0), all validating against one program
// compiled once through the annotation cache. Requests route by their
// "switch" field; the first listed shard is the default. A supervisor
// restores crashed or wedged shards; while a shard is down, writes to it
// fail fast with a retryable error and the controller retries.
//
// With -state-dir each shard journals every applied update under
// <state-dir>/<id>/ and restarts from its snapshot + journal without any
// controller replay. SIGINT and SIGTERM trigger a graceful shutdown:
// in-flight requests drain, a final checkpoint compacts each journal,
// then the process exits.
//
// With -obs-addr the shim serves observability over HTTP on a second,
// private listener: Prometheus text metrics at /metrics, the same
// document as JSON at /metrics.json, and net/http/pprof profiling under
// /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bf4/internal/driver"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/p4runtime"
	"bf4/internal/progs"
	"bf4/internal/shim"
	"bf4/internal/spec"
)

func main() {
	var (
		specPath    = flag.String("spec", "", "controller assertions file (from bf4 -spec)")
		listen      = flag.String("listen", "127.0.0.1:9559", "listen address")
		programPath = flag.String("program", "", "P4 source for packet injection (optional)")
		corpusName  = flag.String("corpus", "", "corpus program for packet injection")
		switchScale = flag.Int("switch-scale", 0, "generated switch scale for packet injection")

		stateDir     = flag.String("state-dir", "", "directory for crash-recovery state: each shard keeps its snapshot + journal in <state-dir>/<id>/")
		shards       = flag.String("shards", "sw0", "comma-separated switch ids, one shadow-state shard each (program verified once); the first is the default switch")
		healthIvl    = flag.Duration("health-interval", 250*time.Millisecond, "fleet supervisor health-check tick")
		healthDl     = flag.Duration("health-deadline", 5*time.Second, "declare a shard wedged when one operation holds its lock this long")
		maxConns     = flag.Int("max-conns", 0, "max concurrent controller connections (0 = unlimited)")
		readTimeout  = flag.Duration("read-timeout", 5*time.Minute, "per-connection idle read deadline")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-response write deadline")
		maxFrame     = flag.Int("max-frame", 1<<20, "max request frame size in bytes")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
		obsAddr      = flag.String("obs-addr", "", "serve Prometheus /metrics, /metrics.json and /debug/pprof on this address (e.g. 127.0.0.1:9560; empty disables)")
	)
	flag.Parse()

	src, name := "", ""
	switch {
	case *programPath != "":
		data, err := os.ReadFile(*programPath)
		if err != nil {
			fatalf("%v", err)
		}
		src, name = string(data), *programPath
	case *corpusName != "":
		p := progs.Get(*corpusName)
		if p == nil {
			fatalf("unknown corpus program %q", *corpusName)
		}
		src, name = p.Source, p.Name
	case *switchScale > 0:
		src, name = progs.GenerateSwitch(*switchScale), "switch"
	}

	var file *spec.File
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fatalf("%v", err)
		}
		if file, err = spec.Parse(data); err != nil {
			fatalf("%v", err)
		}
	}
	var prog *ir.Program
	if src != "" {
		// The verified program's final IR serves packet injection; with no
		// spec file, its annotations are what the shim enforces.
		res, err := driver.Run(name, src, driver.DefaultConfig())
		if err != nil {
			fatalf("bf4: %v", err)
		}
		pl, _, _ := res.Final()
		prog = pl.IR
		if file == nil {
			file = res.Spec()
			fmt.Printf("analyzed %s: %s\n", name, res.Summary())
		}
	}
	if file == nil {
		fatalf("need -spec and/or a program (-program/-corpus/-switch-scale)")
	}

	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
	}
	srv := &p4runtime.Server{
		Prog:          prog,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
		MaxFrameBytes: *maxFrame,
		MaxConns:      *maxConns,
		Obs:           reg,
	}
	ids := splitShards(*shards)
	if len(ids) == 0 {
		fatalf("-shards lists no switch id")
	}
	fleet := shim.NewFleet(shim.FleetConfig{
		StateRoot:      *stateDir,
		HealthInterval: *healthIvl,
		HealthDeadline: *healthDl,
		Obs:            reg,
	})
	for _, id := range ids {
		// AddShard's errors start with their layer: shim: or spec:.
		if _, err := fleet.AddShard(id, file); err != nil {
			fatalf("%v", err)
		}
	}
	fleet.StartSupervisor()
	srv.Fleet = fleet
	srv.DefaultSwitch = ids[0]
	fmt.Printf("bf4-shim: fleet of %d shards (verify-once cache)\n", len(ids))
	if *stateDir != "" {
		fmt.Printf("bf4-shim: shadow state restored from %s\n", *stateDir)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatalf("%v", err)
	}
	if *obsAddr != "" {
		oln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fatalf("obs listen: %v", err)
		}
		fmt.Printf("bf4-shim: metrics and pprof on http://%s\n", oln.Addr())
		go func() {
			if err := http.Serve(oln, obs.NewMux(reg)); err != nil {
				fmt.Fprintf(os.Stderr, "bf4-shim: obs server: %v\n", err)
			}
		}()
	}
	fmt.Printf("bf4-shim: %d assertions over %d tables; listening on %s\n",
		len(file.Assertions), len(file.Tables), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			fatalf("serve: %v", err)
		}
	case s := <-sig:
		fmt.Printf("bf4-shim: %v, draining connections\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "bf4-shim: forced shutdown: %v\n", err)
		}
		// Stops the supervisor and checkpoints every healthy shard.
		if err := fleet.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bf4-shim: fleet close: %v\n", err)
		}
	}
}

// splitShards parses the -shards flag: comma-separated switch ids,
// blanks ignored.
func splitShards(s string) []string {
	var ids []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
