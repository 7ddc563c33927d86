package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tapas/internal/trace"
)

// Client speaks the v1 HTTP API of a tapas-serve daemon (or a
// tapas-gateway fronting a fleet of them). The zero value is not
// usable; construct with NewClient. Methods are safe for concurrent
// use.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 30 s timeout for the
	// unary calls; StreamEvents and WaitDone always use a timeout-free
	// transport derived from it, bounded by their context instead.
	HTTPClient *http.Client
	// MaxRetries bounds the extra attempts of idempotent GET requests
	// (Job, Models, Health — and WaitDone's polling through them) after
	// a connection error, a 5xx response, or a 429 from a gateway's
	// rate limiter. NewClient sets 3; 0 or negative disables retrying.
	// Non-GET requests are never retried: a search or submit that
	// failed mid-flight may have executed.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff between attempts
	// (jittered; doubles per attempt, capped at retryMaxDelay). 0
	// selects 100ms. A Retry-After header on a 429/503 response
	// overrides the computed delay (capped at 30s).
	RetryBaseDelay time.Duration
}

// retryMaxDelay caps the computed retry backoff.
const retryMaxDelay = 2 * time.Second

// NewClient builds a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
		MaxRetries: 3,
	}
}

// APIError is a non-2xx daemon response.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server-directed backoff from a Retry-After
	// header (0 when absent) — a gateway's rate limiter sets it on 429.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: daemon returned %d: %s", e.StatusCode, e.Message)
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// do issues one JSON round trip. A nil in means no request body; a nil
// out discards the response body. GET requests are retried on
// transient failures (connection errors, 5xx, 429) with capped,
// jittered exponential backoff, honoring Retry-After; other methods
// get exactly one attempt.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var buf []byte
	if in != nil {
		var err error
		buf, err = json.Marshal(in)
		if err != nil {
			return err
		}
	}
	attempts := 1
	if method == http.MethodGet && c.MaxRetries > 0 {
		attempts += c.MaxRetries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		err := c.roundTrip(ctx, method, path, buf, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt == attempts-1 || ctx.Err() != nil || !transient(err) {
			return err
		}
		if werr := c.backoff(ctx, attempt, retryAfterOf(err)); werr != nil {
			return lastErr
		}
	}
	return lastErr
}

// roundTrip is one request/response exchange.
func (c *Client) roundTrip(ctx context.Context, method, path string, buf []byte, out any) error {
	var body io.Reader
	if buf != nil {
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if buf != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	trace.Inject(ctx, req.Header)
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// transient reports whether a failed attempt is worth retrying: any
// transport error, or a response that signals overload or a dying
// upstream (5xx, 429). 4xx responses other than 429 are the caller's
// bug and final.
func transient(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500 || apiErr.StatusCode == http.StatusTooManyRequests
	}
	return true // connection refused, reset, timeout: the request may never have arrived
}

// retryAfterOf extracts a server-directed delay from a 429/503
// response, 0 when absent.
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// backoff sleeps before the next attempt: the server's Retry-After when
// given (capped at 30s), otherwise capped exponential backoff with
// jitter in [d/2, d). Returns early when ctx dies.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	var d time.Duration
	if retryAfter > 0 {
		d = min(retryAfter, 30*time.Second)
	} else {
		base := c.RetryBaseDelay
		if base <= 0 {
			base = 100 * time.Millisecond
		}
		d = min(base<<attempt, retryMaxDelay)
		d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// decodeAPIError turns a non-2xx response into an *APIError, reading
// the daemon's JSON error envelope when present.
func decodeAPIError(resp *http.Response) error {
	var eb errorBody
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&eb); err == nil && eb.Error != "" {
		msg = eb.Error
	}
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: msg}
	apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	return apiErr
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds, or an HTTP-date (in which case the delay is measured
// against the local clock). Absent, malformed, zero and past values all
// yield 0 — "no server-directed backoff".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// Search runs one synchronous search (POST /v1/search).
func (c *Client) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	var out SearchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/search", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SearchBatch runs many searches in one round trip
// (POST /v1/search:batch). Results are positional and failures are
// per-item: inspect each item's Error/Status. The returned error covers
// transport and envelope failures only.
func (c *Client) SearchBatch(ctx context.Context, reqs []SearchRequest) (*BatchSearchResponse, error) {
	var out BatchSearchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/search:batch", BatchSearchRequest{Requests: reqs}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Tasks ships a batch of prefix tasks for remote execution
// (POST /v1/tasks). Exactly one attempt is made — the scatter
// coordinator owns retry and failover policy, and a duplicate execution
// would only waste the peer's cycles.
func (c *Client) Tasks(ctx context.Context, req TaskRequest) (*TaskResponse, error) {
	var out TaskResponse
	if err := c.do(ctx, http.MethodPost, "/v1/tasks", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Models lists the registered model names (GET /v1/models).
func (c *Client) Models(ctx context.Context) ([]string, error) {
	var out struct {
		Models []string `json:"models"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// Health fetches the daemon's health snapshot (GET /v1/healthz).
func (c *Client) Health(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Submit enqueues an async job (POST /v1/jobs).
func (c *Client) Submit(ctx context.Context, req SearchRequest) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job's status (GET /v1/jobs/{id}); a done job's status
// embeds its SearchResponse.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Cancel requests a job's cancellation (DELETE /v1/jobs/{id}).
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// streamClient derives a timeout-free client for long-lived requests
// (SSE, polling), which their contexts bound instead.
func (c *Client) streamClient() *http.Client {
	hc := http.DefaultClient
	if c.HTTPClient != nil {
		hc = c.HTTPClient
	}
	cp := *hc
	cp.Timeout = 0
	return &cp
}

// StreamEvents consumes a job's SSE stream (GET /v1/jobs/{id}/events),
// invoking fn for every event until the stream ends (the daemon closes
// it after the terminal state event), fn returns a non-nil error
// (returned verbatim, stopping the stream), or ctx is cancelled.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(JobEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	trace.Inject(ctx, req.Header)
	resp, err := c.streamClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data strings.Builder
	flush := func() error {
		if data.Len() == 0 {
			return nil
		}
		var ev JobEvent
		err := json.Unmarshal([]byte(data.String()), &ev)
		data.Reset()
		if err != nil {
			return fmt.Errorf("service: bad SSE payload: %w", err)
		}
		return fn(ev)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// event:/id:/retry: and comment lines are ignored; the
			// payload type travels inside the JSON.
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// WaitDone polls a job until it reaches a terminal state, returning the
// final status (State done, failed or cancelled). Prefer StreamEvents
// when live progress matters; WaitDone is the no-SSE fallback.
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}
