package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lafdbscan/internal/serve"
)

// server is an in-process lafserve instance listening on loopback.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	base string
}

// startServer constructs a server journaling into walDir (recovering
// whatever journals it holds) and starts serving it on a loopback port.
func startServer(walDir string) (*server, error) {
	srv := serve.NewServer(serve.Options{
		WALDir:  walDir,
		WALSync: walSync,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener, waits for in-flight requests and the serving
// goroutine, then stops the job engine and flushes the journals.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves connections to Close below
	_ = s.hs.Close()
	<-s.done
	s.srv.Close()
}

// client drives one server over HTTP with at most nproc connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil, // loopback only
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send sends one request and returns the status and the body of a 2xx
// answer; any other status is an error.
func (c *client) send(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, data, nil
}

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). It returns the status code.
func (c *client) do(method, path string, body []byte, out any) (int, error) {
	status, data, err := c.send(method, path, body)
	if err != nil || out == nil {
		return status, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return status, fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return status, nil
}

// text fetches a plain-text endpoint.
func (c *client) text(path string) (string, error) {
	_, data, err := c.send("GET", path, nil)
	return string(data), err
}

type modelInfo struct {
	ID     string `json:"id"`
	Points int    `json:"points"`
}

type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

func vectorsBody(vectors [][]float32) []byte {
	body, err := json.Marshal(map[string]any{"vectors": vectors})
	if err != nil {
		panic(err) // float32 slices always encode
	}
	return body
}

func (c *client) predict(id string, vectors [][]float32) ([]int, error) {
	var out struct {
		Labels []int `json:"labels"`
	}
	if _, err := c.do("POST", "/v1/models/"+id+"/predict", vectorsBody(vectors), &out); err != nil {
		return nil, err
	}
	if len(out.Labels) != len(vectors) {
		return nil, fmt.Errorf("predict returned %d labels for %d vectors", len(out.Labels), len(vectors))
	}
	return out.Labels, nil
}

func (c *client) model(id string) (modelInfo, error) {
	var info modelInfo
	_, err := c.do("GET", "/v1/models/"+id, nil, &info)
	return info, err
}

// waitJob polls a job until it has finished; only set-up and the drain
// after the window poll, never the window itself.
func (c *client) waitJob(id string, timeout time.Duration) (jobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		var st jobStatus
		if _, err := c.do("GET", "/v1/jobs/"+id, nil, &st); err != nil {
			return st, err
		}
		if st.Finished != nil {
			if st.State != "done" {
				return st, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sample is the client's record of one scheduled request.
type sample struct {
	due, sent, done time.Time
	status          int
	err             error
	jobID           string
	spanID          int
}

// openLoop sends the schedule on time regardless of how the server keeps
// up, from nproc sender goroutines sharing one connection pool; latency is
// later measured from each request's due time, so a stall is charged to
// every request it delays.
func openLoop(c *client, modelID string, ops []op, bodies [][]byte, rec *recorder, parent int) []sample {
	out := make([]sample, len(ops))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &out[i]
				s.due = start.Add(ops[i].due)
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Now()
				if ops[i].insert {
					var st jobStatus
					s.status, s.err = c.do("POST", "/v1/models/"+modelID+"/insert", bodies[i], &st)
					s.jobID = st.ID
					s.done = time.Now()
					s.spanID = rec.add("client.insert", parent, s.sent, s.done)
				} else {
					var res struct {
						Labels []int `json:"labels"`
					}
					s.status, s.err = c.do("POST", "/v1/models/"+modelID+"/predict", bodies[i], &res)
					s.done = time.Now()
					if s.err == nil && len(res.Labels) != len(ops[i].vectors) {
						s.err = fmt.Errorf("predict returned %d labels for %d vectors", len(res.Labels), len(ops[i].vectors))
					}
					s.spanID = rec.add("client.predict", parent, s.sent, s.done)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// promText is one scrape of the Prometheus text endpoint: series name
// (with labels) to value.
type promText map[string]float64

func parseProm(text string) promText {
	out := promText{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the named metric whose labels contain match.
func (p promText) sum(name, match string) float64 {
	total := 0.0
	for series, v := range p {
		base, labels, _ := strings.Cut(series, "{")
		if base == name && strings.Contains(labels, match) {
			total += v
		}
	}
	return total
}
