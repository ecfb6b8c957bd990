package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clustereval/internal/service"
)

// relayedView is the part of a job view TestRelayKeepsLargeIntegers
// reads, with the seed kept as the digits the server sent.
type relayedView struct {
	ID   string `json:"id"`
	Spec struct {
		Seed json.Number `json:"seed"`
	} `json:"spec"`
	SpecHash string `json:"spec_hash"`
}

func decodeRelayed(t *testing.T, body io.Reader, v any) {
	t.Helper()
	dec := json.NewDecoder(body)
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// TestRelayKeepsLargeIntegers sends a spec whose seed does not fit a
// float64 through the coordinator: the submit, job and listing replies
// must all carry the seed exactly, with the spec hash a direct shard
// submission reports. A relay that decodes numbers generically rounds the
// seed to 18446744073709552000, whose hash is another spec's.
func TestRelayKeepsLargeIntegers(t *testing.T) {
	const seed = "18446744073709551615" // 2^64 - 1
	spec := `{"kind":"net","iters":5,"seed":` + seed + `}`
	tf := newTestFleet(t, 2)
	front := tf.front(t)

	resp, err := http.Post(tf.servers["s0"].URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var direct relayedView
	decodeRelayed(t, resp.Body, &direct)
	resp.Body.Close()
	if direct.Spec.Seed != seed || direct.SpecHash == "" {
		t.Fatalf("shard answered seed %s, spec_hash %q", direct.Spec.Seed, direct.SpecHash)
	}

	check := func(route string, v relayedView) {
		t.Helper()
		if v.Spec.Seed != seed {
			t.Errorf("%s: seed %s, want %s", route, v.Spec.Seed, seed)
		}
		if v.SpecHash != direct.SpecHash {
			t.Errorf("%s: spec_hash %s, a direct shard submit gives %s", route, v.SpecHash, direct.SpecHash)
		}
	}

	resp, err = http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var submitted relayedView
	decodeRelayed(t, resp.Body, &submitted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: HTTP %d", resp.StatusCode)
	}
	check("POST /v1/jobs", submitted)
	waitDone(t, front.URL, submitted.ID)

	resp, err = http.Get(front.URL + "/v1/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got relayedView
	decodeRelayed(t, resp.Body, &got)
	resp.Body.Close()
	check("GET /v1/jobs/{id}", got)

	resp, err = http.Get(front.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []relayedView `json:"jobs"`
	}
	decodeRelayed(t, resp.Body, &list)
	resp.Body.Close()
	found := false
	for _, v := range list.Jobs {
		if v.ID == submitted.ID {
			found = true
			check("GET /v1/jobs", v)
		}
	}
	if !found {
		t.Errorf("GET /v1/jobs does not list %s", submitted.ID)
	}
}

// BenchmarkFleetHit times one cache hit through a coordinator in front
// of one shard, both on httptest: the client's request, the coordinator's
// canonicalisation and relay, and the shard's hit. B/op counts the
// garbage of all three.
func BenchmarkFleetHit(b *testing.B) {
	svc := service.New(service.Config{Workers: 1, ShardName: "s0"})
	shard := httptest.NewServer(service.NewServer(svc))
	defer func() {
		shard.Close()
		_ = svc.Close(context.Background())
	}()
	coord, err := NewCoordinator(CoordinatorConfig{}, []Shard{{Name: "s0", BaseURL: shard.URL}})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(coord)
	defer front.Close()
	client := front.Client()

	const spec = `{"kind":"net","iters":5,"seed":7}`
	post := func() (int, error) {
		resp, err := client.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	// Warm the spec: resubmit until the shard answers from its cache.
	for i := 0; ; i++ {
		code, err := post()
		if err != nil {
			b.Fatal(err)
		}
		if code == http.StatusOK {
			break
		}
		if i == 1000 {
			b.Fatalf("spec still not cached after %d submissions (HTTP %d)", i, code)
		}
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, err := post(); err != nil || code != http.StatusOK {
			b.Fatalf("hit: HTTP %d, %v", code, err)
		}
	}
}
