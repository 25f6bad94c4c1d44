package p4runtime

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bf4/internal/dataplane"
	"bf4/internal/obs"
	"bf4/internal/shim"
)

// TestChaosMetricsScrape runs the concurrent chaos workload with a
// metrics registry attached to both the fleet and the server, while a
// scraper hits /metrics and /metrics.json mid-flight — the exact
// deployment shape of bf4-shim -obs-addr. Under -race this proves the
// exposition path (which snapshots histograms bucket by bucket) is safe
// against the validation hot path. At the end the exported counters must
// agree with the shim's own Stats().
func TestChaosMetricsScrape(t *testing.T) {
	seed := chaosSeed(t)
	prog, file := natProgram(t)
	reg := obs.NewRegistry()
	srv := &Server{Prog: prog, Obs: reg,
		ReadTimeout: 10 * time.Second, WriteTimeout: 5 * time.Second}
	sd, addr := serve(t, file, shim.FleetConfig{Obs: reg}, srv)

	web := httptest.NewServer(obs.NewMux(reg))
	defer web.Close()

	scrape := func(path string) string {
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Errorf("scrape %s: %v", path, err)
			return ""
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("scrape %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("scrape %s: read: %v", path, err)
		}
		return string(body)
	}

	const clients = 4
	const perClient = 6
	entryFor := func(c, j int) *dataplane.Entry {
		return &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(int64(c*100+j), -1)},
			Action: "drop_",
		}
	}

	stop := make(chan struct{})
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			scrape("/metrics")
			scrape("/metrics.json")
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cseed := seed + int64(c)*104729
			cl, err := DialOptions(addr, chaosClientOpts(cseed, chaosFaults(cseed), addr))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < perClient; j++ {
				if err := cl.Insert("nat", entryFor(c, j)); err != nil {
					errs <- fmt.Errorf("client %d insert %d: %w", c, j, err)
					return
				}
				if _, _, err := cl.Stats(); err != nil {
					errs <- fmt.Errorf("client %d stats %d: %w", c, j, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(stop)
	scraperWG.Wait()

	// The exported counters must agree with the shim's own ledger.
	st := sd.Stats()
	if got := reg.CounterValue("bf4_shim_updates_validated_total"); got != int64(st.Validated) {
		t.Errorf("validated counter = %d, shim says %d", got, st.Validated)
	}
	if got := reg.CounterValue("bf4_shim_updates_rejected_total"); got != int64(st.Rejected) {
		t.Errorf("rejected counter = %d, shim says %d", got, st.Rejected)
	}
	if st.Validated < clients*perClient {
		t.Errorf("only %d updates validated, want >= %d", st.Validated, clients*perClient)
	}
	if reg.CounterValue("bf4_p4rt_requests_total") == 0 {
		t.Error("no p4runtime requests recorded")
	}

	// A final scrape must expose every metric family the run produced.
	final := scrape("/metrics")
	for _, want := range []string{
		"bf4_shim_updates_validated_total",
		"bf4_shim_update_ns_bucket",
		"bf4_shim_shadow_entries",
		"bf4_p4rt_requests_total",
		"bf4_p4rt_request_ns_bucket",
	} {
		if !strings.Contains(final, want) {
			t.Errorf("final exposition missing %s", want)
		}
	}
}
