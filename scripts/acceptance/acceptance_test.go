package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Every scenario list the Makefile runs must name rows of the table.
func TestMakefileScenariosExist(t *testing.T) {
	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, sc := range scenarios {
		known[sc.name] = true
	}
	const cmd = "./scripts/acceptance"
	lists := 0
	for _, line := range strings.Split(string(makefile), "\n") {
		_, names, ok := strings.Cut(line, cmd+" ")
		if !ok || !strings.HasPrefix(line, "\t") {
			continue
		}
		lists++
		for _, name := range strings.Fields(names) {
			if !known[name] {
				t.Errorf("Makefile runs unknown scenario %q: %s", name, strings.TrimSpace(line))
			}
		}
	}
	// crashtest, fleettest, disktest, loadtest and racesmoke.
	if lists != 5 {
		t.Errorf("found %d scenario lists in the Makefile, want 5", lists)
	}
}

func TestUnknownScenarioExits2(t *testing.T) {
	for _, args := range [][]string{{"crash", "no-such-scenario"}, {"fleet", "fleettest"}, nil} {
		if got := run(args); got != 2 {
			t.Errorf("run(%q) = %d, want 2", args, got)
		}
	}
}

// pickShard against a fake coordinator: per-job states on
// /v1/jobs/{id} and a topology on /v1/fleet.
func TestPickShard(t *testing.T) {
	states := map[string]string{
		"s0-j1": "done", "s0-j2": "running",
		"s1-j1": "running", "s1-j2": "queued", "s1-j3": "cancelled",
		"s2-j1": "running", "s2-j2": "running", "s2-j3": "running",
		"s3-j1": "running", "s3-j2": "queued", "s3-j3": "running",
	}
	type shard struct {
		Name string `json:"name"`
		Live bool   `json:"live"`
		PID  int    `json:"pid"`
	}
	fake := func(shards []shard) string {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
			state, ok := states[r.PathValue("id")]
			if !ok {
				http.NotFound(w, r)
				return
			}
			_ = json.NewEncoder(w).Encode(map[string]string{"id": r.PathValue("id"), "state": state})
		})
		mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(map[string]any{"shards": shards})
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	// s2 is down and s3 has no child PID: neither may be picked,
	// however busy.
	url := fake([]shard{{"s0", true, 100}, {"s1", true, 101}, {"s2", false, 102}, {"s3", true, 0}})

	all := make([]string, 0, len(states))
	for id := range states {
		all = append(all, id)
	}
	for _, tc := range []struct {
		name    string
		ids     []string
		want    string
		wantPID int
	}{
		{"most in flight wins", all, "s1", 101},
		{"tie goes to the first live shard", []string{"s1-j1", "s0-j2"}, "s0", 100},
		{"no ids picks the first live shard", nil, "s0", 100},
		{"missing jobs count for nobody", []string{"s9-j1", "s1-j2"}, "s1", 101},
	} {
		name, pid, err := pickShard(url, tc.ids)
		if err != nil || name != tc.want || pid != tc.wantPID {
			t.Errorf("%s: pickShard = %s, %d, %v; want %s, %d", tc.name, name, pid, err, tc.want, tc.wantPID)
		}
	}

	url = fake([]shard{{"s0", false, 100}, {"s1", true, 0}})
	if name, _, err := pickShard(url, all); err == nil {
		t.Errorf("pickShard with no live shard holding a PID = %s, want an error", name)
	}
}

// A daemon's children must die with it, whether the run fails (close)
// or is interrupted (the context ends).
func TestProcessGroupKilled(t *testing.T) {
	for _, trigger := range []string{"close", "interrupt"} {
		ctx, cancel := context.WithCancel(context.Background())
		h := &harness{ctx: ctx, dir: t.TempDir()}
		cmd := h.command("sh", "-c", "sleep 30 & echo $!; wait")
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		grandchild, err := strconv.Atoi(strings.TrimSpace(line))
		if err != nil {
			t.Fatal(err)
		}
		// Without the group kill, close would wait for sleep to finish:
		// the deadline starts before the trigger.
		begin := time.Now()
		if trigger == "close" {
			h.close()
		} else {
			cancel()
		}
		for alive(grandchild) && time.Since(begin) < 10*time.Second {
			time.Sleep(10 * time.Millisecond)
		}
		if time.Since(begin) >= 10*time.Second {
			t.Fatalf("%s: grandchild sleep (pid %d) outlived the group kill", trigger, grandchild)
		}
		cancel()
		_ = cmd.Wait()
	}
}

// alive reports whether pid is a live process. A zombie has died and
// only awaits its reaper.
func alive(pid int) bool {
	if syscall.Kill(pid, 0) != nil {
		return false
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	return err != nil || !bytes.Contains(stat, []byte(") Z "))
}
