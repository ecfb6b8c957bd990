package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"clustereval/internal/experiment"
	"clustereval/internal/journal"
	"clustereval/internal/machine"
)

// Server translates HTTP onto a Service. It is an http.Handler; cmd/clusterd
// mounts it on a listener, tests mount it on httptest.
type Server struct {
	svc   *Service
	mux   *http.ServeMux
	start time.Time
}

// NewServer wires the REST routes around svc.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), start: svc.cfg.clock()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/machines", s.handleMachines)
	s.mux.HandleFunc("GET /v1/kinds", s.handleKinds)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/replication/ingest", s.handleReplicaIngest)
	s.mux.HandleFunc("PUT /v1/replication/peers", s.handleReplicaPeers)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// JSONIndent is the indent of every JSON body clusterd and clusterfleet
// write, one step per nesting level.
const JSONIndent = "  "

// jsonWriter is an indenting encoder with the buffer it encodes into,
// pooled so a response reuses both instead of allocating them.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", JSONIndent)
	return jw
}}

// MaxPooledBuffer is the largest buffer a response hands back to a pool;
// a larger one, such as a long /v1/jobs listing's, is left to the
// collector rather than pinned.
const MaxPooledBuffer = 64 << 10

// send writes the buffered body with status code and hands the writer
// back to its pool.
func (jw *jsonWriter) send(w http.ResponseWriter, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(jw.buf.Bytes())
	if jw.buf.Cap() <= MaxPooledBuffer {
		jw.buf.Reset()
		jsonWriters.Put(jw)
	}
}

// WriteJSON answers with status code and v as indented JSON: the body
// clusterd and clusterfleet send for every JSON response. An unencodable
// v sends the status with an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	jw := jsonWriters.Get().(*jsonWriter)
	_ = jw.enc.Encode(v) // on error nothing is buffered; the status still goes out
	jw.send(w, code)
}

// memberJSON encodes v as WriteJSON writes it as a member of the body's
// top-level object, one level deep; nil when v does not encode.
func memberJSON(v any) []byte {
	b, err := json.MarshalIndent(v, JSONIndent, JSONIndent)
	if err != nil {
		return nil
	}
	return b
}

// The result member of a job view and the member after it, which every
// view has. Inside a string a newline is escaped, so a newline followed by
// one indent and a quote only starts a top-level member.
var (
	resultMember      = []byte("\n" + JSONIndent + `"result": `)
	submittedAtMember = []byte("\n" + JSONIndent + `"submitted_at": `)
)

// writeView answers with a job view, as WriteJSON would. A view whose
// result carries its stored bytes (JobView.resultJSON) has only its
// header encoded; the bytes go in the result member's place, before
// submitted_at.
func writeView(w http.ResponseWriter, code int, v JobView) {
	stored := v.resultJSON
	if stored == nil {
		WriteJSON(w, code, v)
		return
	}
	v.Result = nil
	jw := jsonWriters.Get().(*jsonWriter)
	_ = jw.enc.Encode(v) // on error nothing is buffered, as in WriteJSON
	if at := bytes.LastIndex(jw.buf.Bytes(), submittedAtMember); at >= 0 {
		var tail [256]byte
		rest := append(tail[:0], jw.buf.Bytes()[at:]...)
		jw.buf.Truncate(at)
		jw.buf.Write(resultMember)
		jw.buf.Write(stored)
		jw.buf.WriteByte(',')
		jw.buf.Write(rest)
	}
	jw.send(w, code)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// MaxSpecBytes caps the JSON body of a job submission, to a shard or to
// the fleet coordinator, and of a shard's replication peer set. Each is a
// few hundred bytes; a handler stops reading a larger body at the cap.
const MaxSpecBytes = 1 << 20

// DecodeStatus is the status that answers a request body that failed to
// decode with err: 413 when it outgrew the http.MaxBytesReader it was
// read through, else 400.
func DecodeStatus(err error) int {
	if errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleSubmit accepts a JobSpec, answering 200 for cache hits, 202 for
// queued jobs, 400 for invalid specs, 413 for a body over MaxSpecBytes,
// 429 with Retry-After when admission control sheds the submission, and
// 503 when the queue is full or the daemon is draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, DecodeStatus(err), "invalid job spec: "+err.Error())
		return
	}
	view, err := s.svc.Submit(spec)
	var overload *OverloadError
	switch {
	case err == nil:
		code := http.StatusAccepted
		if view.State == StateDone { // served from cache
			code = http.StatusOK
		}
		writeView(w, code, view)
	case errors.As(err, new(*ValidationError)):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.As(err, &overload):
		secs := int(math.Ceil(overload.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.As(err, new(*DurabilityError)):
		// The journal or its replication quorum could not commit the
		// job. Retryable: the fleet re-routes or heals, then a resend
		// lands.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": s.svc.Jobs()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.svc.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeView(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.svc.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeView(w, http.StatusOK, view)
}

// handleMachines lists the machine presets jobs can target, with enough
// shape (cores, nodes, fabric) for a client to build sensible specs.
func (s *Server) handleMachines(w http.ResponseWriter, _ *http.Request) {
	type machineInfo struct {
		Name         string  `json:"name"`
		Preset       string  `json:"preset"`
		CPU          string  `json:"cpu"`
		CoresPerNode int     `json:"cores_per_node"`
		Nodes        int     `json:"nodes"`
		Network      string  `json:"network"`
		DPPeakGFlops float64 `json:"dp_peak_gflops_per_node"`
		MemBWGBps    float64 `json:"mem_bw_gbps_per_node"`
		LinkGBps     float64 `json:"link_peak_gbps"`
	}
	out := []machineInfo{}
	for _, name := range machine.PresetNames() {
		m, _ := machine.Preset(name)
		out = append(out, machineInfo{
			Name:         m.Name,
			Preset:       name,
			CPU:          m.CPUName,
			CoresPerNode: m.Node.Cores(),
			Nodes:        m.Nodes,
			Network:      string(m.Network.Kind),
			DPPeakGFlops: float64(m.Node.DoublePeak()) / 1e9,
			MemBWGBps:    float64(m.Node.MemoryPeak()) / 1e9,
			LinkGBps:     float64(m.Network.LinkPeak) / 1e9,
		})
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"machines": out,
		"kinds":    Kinds(),
	})
}

// handleKinds publishes the experiment registry: every job kind with its
// title, paper figure and parameter schema, plus the shared fields every
// kind accepts, so clients can build valid specs without guessing. The
// listing is derived from internal/experiment's definitions — the same
// source that validates submissions — so it cannot drift from what the
// daemon actually runs.
func (s *Server) handleKinds(w http.ResponseWriter, _ *http.Request) {
	type kindInfo struct {
		Kind   string             `json:"kind"`
		Title  string             `json:"title"`
		Figure string             `json:"figure"`
		Fields []experiment.Field `json:"fields"`
	}
	out := []kindInfo{}
	for _, d := range experiment.Definitions() {
		fields := d.Fields
		if fields == nil {
			fields = []experiment.Field{}
		}
		out = append(out, kindInfo{Kind: d.Kind, Title: d.Title, Figure: d.Figure, Fields: fields})
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"kinds":         out,
		"shared_fields": experiment.SharedFields(),
	})
}

// Degradation thresholds for /healthz: the daemon reports "degraded" when
// the queue is nearly full or, once enough outcomes accumulated to be
// meaningful, when at least half of the recent jobs failed.
const (
	healthSaturationLimit  = 0.9
	healthFailureRateLimit = 0.5
	healthMinSamples       = 8
)

// handleHealthz reports liveness plus the degradation signals: queue
// saturation and the recent failure rate. The status code stays 200 even
// when degraded — the daemon is alive and still making progress; "status"
// carries the judgement so orchestrators can alert without flapping
// restarts.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	sat := s.svc.QueueSaturation()
	rate, samples := s.svc.RecentFailureRate()
	status := "ok"
	if sat >= healthSaturationLimit || (samples >= healthMinSamples && rate >= healthFailureRateLimit) {
		status = "degraded"
	}
	report := map[string]any{
		"status":              status,
		"uptime_seconds":      s.svc.cfg.clock().Sub(s.start).Seconds(),
		"workers":             s.svc.Workers(),
		"queue_depth":         s.svc.QueueDepth(),
		"queue_capacity":      s.svc.QueueCapacity(),
		"queue_saturation":    sat,
		"recent_failure_rate": rate,
		"recent_samples":      samples,
		"breaker":             s.svc.BreakerState(),
		"durable":             s.svc.Durable(),
	}
	if shard := s.svc.ShardName(); shard != "" {
		report["shard"] = shard
	}
	if repl := s.svc.ReplicationStatus(); repl.Enabled {
		report["replication"] = repl
	}
	WriteJSON(w, http.StatusOK, report)
}

// handleReplicaIngest is the follower half of journal replication: a
// primary POSTs a framed batch of its journal records, and the reply
// carries the position this shard durably holds for that source — 200
// when the batch extended (or merely duplicated) the replica, 409 when
// a gap means the primary must resend from last_seq+1.
func (s *Server) handleReplicaIngest(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading replication batch: "+err.Error())
		return
	}
	last, err := s.svc.IngestReplica(data)
	switch {
	case err == nil:
		WriteJSON(w, http.StatusOK, map[string]uint64{"last_seq": last})
	case errors.Is(err, journal.ErrGap):
		WriteJSON(w, http.StatusConflict, map[string]uint64{"last_seq": last})
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// peersRequest is the body of PUT /v1/replication/peers: the write
// quorum and follower set the fleet layer wants this shard to ship to.
type peersRequest struct {
	Quorum int    `json:"quorum"`
	Peers  []Peer `json:"peers"`
}

// handleReplicaPeers lets the fleet layer (re)point this shard's
// replication at the current follower addresses — children restart on
// ephemeral ports, so the peer set changes across a shard's lifetime.
func (s *Server) handleReplicaPeers(w http.ResponseWriter, r *http.Request) {
	var req peersRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, DecodeStatus(err), "invalid peer set: "+err.Error())
		return
	}
	if err := s.svc.SetReplication(req.Quorum, req.Peers); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, s.svc.ReplicationStatus())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.svc.Registry().WriteText(w)
}
