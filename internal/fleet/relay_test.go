package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
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

// refRewriteView is the relay the splice replaced, kept as its oracle the
// way refHistory is kept for the job history: it decodes a shard's view
// into raw members, rewrites id onto the fleet namespace and adds the
// shard; service.WriteJSON then writes the map, which orders the members
// by name, compacts every value and indents it again.
func refRewriteView(payload []byte, shardName string) (map[string]json.RawMessage, string, error) {
	var view map[string]json.RawMessage
	if err := json.Unmarshal(payload, &view); err != nil {
		return nil, "", fmt.Errorf("fleet: shard job view: %w", err)
	}
	localID := stringMember(view, "id")
	if localID == "" {
		return nil, "", errors.New("fleet: shard job view carries no id")
	}
	view["id"] = jsonString(fleetID(shardName, localID))
	view["shard"] = jsonString(shardName)
	return view, localID, nil
}

// jsonString encodes s as a JSON string member value.
func jsonString(s string) json.RawMessage {
	b, _ := json.Marshal(s) // a string always encodes
	return b
}

// refReply is the decoding relay's answer to a shard's reply: relaySubmit's
// for a POST, handleJob's for a GET of publicID.
func refReply(method string, code int, payload []byte, shard, publicID string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	view, _, err := refRewriteView(payload, shard)
	switch {
	case method == http.MethodPost && (code == http.StatusOK || code == http.StatusAccepted):
		if err != nil {
			writeError(rec, http.StatusBadGateway, "fleet: undecodable shard response: "+err.Error())
			return rec
		}
		service.WriteJSON(rec, code, view)
	case method == http.MethodGet && code == http.StatusOK && err == nil:
		view["id"] = jsonString(publicID)
		service.WriteJSON(rec, code, view)
	default:
		copyJSON(rec, code, payload)
	}
	return rec
}

// goldenReply is one response recorded in the service's view golden.
type goldenReply struct {
	request string
	code    int
	payload []byte
}

// goldenReplies reads every response of internal/service's view golden:
// each kind's job views, an error, a cancellation and a listing, all as
// a shard sends them.
func goldenReplies(tb testing.TB) []goldenReply {
	tb.Helper()
	raw, err := os.ReadFile("../service/testdata/views.golden")
	if err != nil {
		tb.Fatal(err)
	}
	var out []goldenReply
	for _, entry := range strings.Split(string(raw), "### ")[1:] {
		request, rest, _ := strings.Cut(entry, "\n")
		status, body, _ := strings.Cut(rest, "\n")
		code, err := strconv.Atoi(strings.Fields(status)[0])
		if err != nil {
			tb.Fatalf("golden entry %q: %v", request, err)
		}
		out = append(out, goldenReply{request: request, code: code, payload: []byte(body)})
	}
	if len(out) == 0 {
		tb.Fatal("view golden holds no responses")
	}
	return out
}

// TestRelayDifferential serves every response of the service's view
// golden from a fake shard and reads it back through the coordinator:
// through a POST, a GET of the job's own fleet ID and a GET of a
// handed-off ID, which keeps its public id. Status, content type and
// body must be the decoding relay's.
func TestRelayDifferential(t *testing.T) {
	var mu sync.Mutex
	var current goldenReply
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		copyJSON(w, current.code, current.payload)
	}))
	defer fake.Close()
	// s1 has no URL, so it is never live: every submission goes to s0.
	coord, err := NewCoordinator(CoordinatorConfig{}, []Shard{{Name: "s0", BaseURL: fake.URL}, {Name: "s1"}})
	if err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	coord.routes["s1-j000042"] = route{shard: "s0", localID: "j000001"}
	coord.mu.Unlock()
	front := httptest.NewServer(coord)
	defer front.Close()

	spliced := 0
	for _, g := range goldenReplies(t) {
		mu.Lock()
		current = g
		mu.Unlock()
		for _, c := range []struct{ method, path, publicID string }{
			{http.MethodPost, "/v1/jobs", ""},
			{http.MethodGet, "/v1/jobs/s0-j000001", "s0-j000001"},
			{http.MethodGet, "/v1/jobs/s1-j000042", "s1-j000042"},
		} {
			var body io.Reader
			if c.method == http.MethodPost {
				body = strings.NewReader(`{"kind":"net"}`)
			}
			req, err := http.NewRequest(c.method, front.URL+c.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := front.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := refReply(c.method, g.code, g.payload, "s0", c.publicID)
			if resp.StatusCode != want.Code || resp.Header.Get("Content-Type") != want.Header().Get("Content-Type") || !bytes.Equal(got, want.Body.Bytes()) {
				t.Errorf("shard answered %q with %d; %s %s relayed %d %q:\n%s\nwant %d %q:\n%s", g.request, g.code, c.method, c.path,
					resp.StatusCode, resp.Header.Get("Content-Type"), got, want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
			}
			if _, _, err := refRewriteView(g.payload, "s0"); err == nil && g.code/100 == 2 {
				spliced++
			}
		}
	}
	if spliced < 3*7*3 {
		t.Errorf("only %d relays of job views; the golden holds three per kind", spliced)
	}
}

// TestRelayConcurrent splices the golden job views from several
// goroutines at once, each through pooled scratch another may have used;
// every reply must still be the decoding relay's.
func TestRelayConcurrent(t *testing.T) {
	replies := goldenReplies(t)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 * len(replies) {
				r := replies[(g+i)%len(replies)]
				want := refReply(http.MethodGet, http.StatusOK, r.payload, "s0", "s0-j1")
				rec := httptest.NewRecorder()
				if relayView(rec, http.StatusOK, r.payload, "s0", "s0-j1") != nil {
					copyJSON(rec, http.StatusOK, r.payload)
				}
				if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("goroutine %d: %q relayed\n%s\nwant\n%s", g, r.request, rec.Body.Bytes(), want.Body.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// memberLayout is a member value as WriteJSON writes it in a top-level
// object: compacted, HTML-escaped and indented one level deep.
func memberLayout(v []byte) []byte {
	var compact, escaped, indented bytes.Buffer
	if err := json.Compact(&compact, v); err != nil {
		return nil
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	if err := json.Indent(&indented, escaped.Bytes(), "  ", "  "); err != nil {
		return nil
	}
	return indented.Bytes()
}

// decodeMembers decodes a reply's top-level members into generic values,
// numbers kept as their digits.
func decodeMembers(t *testing.T, reply []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(reply))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("reply is not a JSON object: %v\n%s", err, reply)
	}
	return m
}

// FuzzRelay checks the splice against the decoding relay on arbitrary
// shard payloads, as a submission's relay and as a GET of a public ID
// that needs escaping. A payload the reference refuses, the splice must
// refuse with the same error and nothing written. On a payload whose
// members are laid out as WriteJSON lays them out, which includes every
// payload WriteJSON can produce, the bytes must be equal; on any other
// payload the reference accepts, the reply must be JSON with the same
// members. The committed corpus (testdata/fuzz/FuzzRelay) holds
// WriteJSON's output for escaped keys, <>&, a raw U+2028 in a string,
// 2^64-1 and nested arrays, as well as refusals and layouts WriteJSON
// never writes; every reply in the service's view golden is a seed too.
func FuzzRelay(f *testing.F) {
	for _, g := range goldenReplies(f) {
		f.Add(g.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, publicID := range []string{"", "s1-<j&7>\u2028"} {
			ref, _, refErr := refRewriteView(payload, "s0")
			rec := httptest.NewRecorder()
			err := relayView(rec, http.StatusOK, payload, "s0", publicID)
			if refErr != nil {
				if err == nil || err.Error() != refErr.Error() || rec.Body.Len() != 0 {
					t.Fatalf("reference refuses (%v); splice gave %v and wrote %q", refErr, err, rec.Body.Bytes())
				}
				continue
			}
			if err != nil {
				t.Fatalf("splice refuses a payload the reference accepts: %v", err)
			}
			if publicID != "" {
				ref["id"] = jsonString(publicID)
			}
			want := httptest.NewRecorder()
			service.WriteJSON(want, http.StatusOK, ref)
			laidOut := true
			for name, v := range ref {
				if name != "id" && name != "shard" && !bytes.Equal(v, memberLayout(v)) {
					laidOut = false
				}
			}
			got := rec.Body.Bytes()
			switch {
			case laidOut && !bytes.Equal(got, want.Body.Bytes()):
				t.Fatalf("splice differs from the reference on %q:\n%s\nwant\n%s", payload, got, want.Body.Bytes())
			case !reflect.DeepEqual(decodeMembers(t, got), decodeMembers(t, want.Body.Bytes())):
				t.Fatalf("splice changed the members of %q:\n%s\nwant\n%s", payload, got, want.Body.Bytes())
			}
			if rec.Code != want.Code || rec.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("splice answered %d %q, reference %d %q", rec.Code, rec.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
			}
		}
	})
}

// TestRelayRefusesPastMaxDepth pins the scanner's nesting limit to the
// decoder's, for arrays and for objects: 10,000 nested containers are a
// view, 10,001 are refused.
func TestRelayRefusesPastMaxDepth(t *testing.T) {
	for _, open := range [][2]string{{"[", "]"}, {`{"a":`, "}"}} {
		for _, depth := range []int{maxDepth, maxDepth + 1} {
			nested := strings.Repeat(open[0], depth-1) + "0" + strings.Repeat(open[1], depth-1)
			payload := []byte(`{"id":"j1","deep":` + nested + `}`)
			_, _, refErr := refRewriteView(payload, "s0")
			err := relayView(httptest.NewRecorder(), http.StatusOK, payload, "s0", "")
			if (err == nil) != (refErr == nil) {
				t.Errorf("%s depth %d: splice %v, reference %v", open[0], depth, err, refErr)
			}
			if depth == maxDepth && err != nil {
				t.Errorf("%s depth %d refused: %v", open[0], depth, err)
			}
		}
	}
}

// BenchmarkFleetHit times one cache hit through a coordinator in front
// of one shard, both on httptest, for each kind of fleet-hot's pool: the
// client's request, the coordinator's canonicalisation and relay, and the
// shard's hit. B/op counts the garbage of all three; view-B is the size
// of the reply.
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

	for _, tc := range []struct{ kind, spec string }{
		{"net", `{"kind":"net","iters":5,"seed":7}`},
		{"stream", `{"kind":"stream","ranks":7}`},
		{"fpu", `{"kind":"fpu","iters":3000}`},
		{"hpl", `{"kind":"hpl","nodes":11}`},
	} {
		b.Run(tc.kind, func(b *testing.B) {
			post := func() (int, int64, error) {
				resp, err := client.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(tc.spec))
				if err != nil {
					return 0, 0, err
				}
				defer resp.Body.Close()
				n, err := io.Copy(io.Discard, resp.Body)
				return resp.StatusCode, n, err
			}
			// Warm the spec: resubmit until the shard answers from its cache.
			for i := 0; ; i++ {
				code, _, err := post()
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
			var size int64
			for i := 0; i < b.N; i++ {
				code, n, err := post()
				if err != nil || code != http.StatusOK {
					b.Fatalf("hit: HTTP %d, %v", code, err)
				}
				size = n
			}
			b.ReportMetric(float64(size), "view-B")
		})
	}
}
