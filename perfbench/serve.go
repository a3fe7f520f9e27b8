package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Headers that carry the client's span into the traced handler wrapper.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// liveServer is an in-process server.New with default config behind a
// real listener on 127.0.0.1, plus one HTTP client per load connection.
// With a tracer attached, each request's ServeHTTP call is a span whose
// parent is the client span named in the request headers.
type liveServer struct {
	srv     *server.Server
	hs      *http.Server
	ln      net.Listener
	base    string
	clients []*http.Client
	serveCh chan error
	tr      atomic.Pointer[tracer]
}

func startServer(conns int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		srv:     server.New(server.Config{}),
		ln:      ln,
		base:    "http://" + ln.Addr().String(),
		serveCh: make(chan error, 1),
	}
	h := ls.srv.Handler()
	ls.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := ls.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		id := tr.begin("server.handler", parent, req)
		h.ServeHTTP(w, r)
		tr.end(id)
	})}
	go func() { ls.serveCh <- ls.hs.Serve(ln) }()
	for i := 0; i < conns; i++ {
		// One connection per client: load never holds more than conns
		// connections open.
		ls.clients = append(ls.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return ls, nil
}

// close shuts the listener and handlers down, drains the decode batcher
// and waits for the serve goroutine to return.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx) // best effort: in-flight requests are the benchmark's own
	ls.srv.Close()
	<-ls.serveCh
	for _, c := range ls.clients {
		c.CloseIdleConnections()
	}
}

// post sends body to path on client conn and decodes a 200 reply into
// out. With a tracer attached the round trip is a root span named name.
func (ls *liveServer) post(conn int, name, path string, req int64, body []byte, out any) error {
	hreq, err := http.NewRequest(http.MethodPost, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	tr := ls.tr.Load()
	id := tr.begin(name, 0, req)
	if id != 0 {
		hreq.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		hreq.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	resp, err := ls.clients[conn].Do(hreq)
	if err != nil {
		tr.end(id)
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Endpoints map[string]struct {
		Requests int64 `json:"requests"`
		Rejected int64 `json:"rejected"`
		Latency  struct {
			Count int64   `json:"count"`
			P50Ms float64 `json:"p50_ms"`
		} `json:"latency"`
	} `json:"endpoints"`
	SessionPool struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"session_pool"`
	Batcher struct {
		Batches  int64 `json:"batches"`
		Requests int64 `json:"requests"`
	} `json:"batcher"`
	WaveformCache struct {
		Entries       int64 `json:"entries"`
		Bytes         int64 `json:"bytes"`
		CapacityBytes int64 `json:"capacity_bytes"`
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		Evictions     int64 `json:"evictions"`
	} `json:"waveform_cache"`
	WaveformCacheShards []struct {
		LockWaitNs int64 `json:"lock_wait_ns"`
	} `json:"waveform_cache_shards"`
}

func (m serverMetrics) lockWaitNs() int64 {
	var n int64
	for _, s := range m.WaveformCacheShards {
		n += s.LockWaitNs
	}
	return n
}

func (ls *liveServer) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := ls.clients[0].Get(ls.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, errors.New("/metrics: status " + resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// transportMs pairs each client span with its handler span and returns,
// per request, the client's round trip minus the handler's time: the
// share spent in HTTP, the loopback socket and the client.
func transportMs(spans []span, client string) []float64 {
	handler := map[int64]span{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			handler[s.Parent] = s
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != client {
			continue
		}
		if h, ok := handler[s.ID]; ok {
			out = append(out, float64(s.dur()-h.dur())/1e6)
		}
	}
	return out
}
