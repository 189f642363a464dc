package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// The client's long-poll window per GET /wait, and how long a run of
// transient wait failures (server down, 5xx, or a job reported cancelled
// by a server going down) is ridden out on one job before the cell falls
// back to local: long enough for a durable server to restart and resume
// the job under its original ID.
const (
	waitSlice  = 10 * time.Second
	waitOutage = 30 * time.Second
)

var (
	// errAuth is a 401: the API key is wrong, which must end the run
	// instead of quietly degrading a remote sweep to a local one.
	errAuth = errors.New("API key rejected (401)")
	// errTransient marks failures that say nothing about the job itself:
	// the transport broke or the server answered 5xx.
	errTransient = errors.New("transient server failure")
)

// busyError is a 429: admission control asks the client to come back
// after the Retry-After delay.
type busyError struct{ after time.Duration }

func (e *busyError) Error() string { return fmt.Sprintf("server busy, retry after %s", e.after) }

// Client runs job specs through the job API that clrearlygw and clrearlyd
// both serve (POST /v1/jobs, then GET /v1/jobs/{id}/wait until the job is
// terminal), and falls back to the caller's local closure whenever the
// remote side cannot produce a front. Runs are deterministic per spec, so
// both paths yield the same front bit for bit. Safe for concurrent use.
type Client struct {
	base    string // normalized base URL, userinfo stripped
	key     string // API key from the URL's userinfo; "" sends none
	http    *http.Client
	backoff *backoff

	remote, local atomic.Int64
}

// NewClient builds a client for a base URL such as
// "http://KEY@host:8081"; the userinfo, when present, is the API key,
// sent as "Authorization: Bearer KEY".
func NewClient(rawURL string) (*Client, error) {
	u, err := url.Parse(normalizeURL(rawURL))
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("gateway client: bad URL %q", rawURL)
	}
	c := &Client{http: &http.Client{Timeout: 2 * waitSlice}, backoff: newBackoff()}
	if u.User != nil {
		c.key = u.User.Username()
		u.User = nil
	}
	c.base = u.String()
	return c, nil
}

// Counts reports how many cells ran remotely and how many fell back to
// their local closure.
func (c *Client) Counts() (remote, local int64) {
	return c.remote.Load(), c.local.Load()
}

// Run resolves spec to a front remotely, or with local when the remote
// side fails. local is ground truth: it also reproduces the canonical
// error of a spec the server rejects. Only a rejected API key is returned
// as an error without running local.
func (c *Client) Run(ctx context.Context, spec *service.JobSpec, local func() (*core.Front, error)) (*core.Front, error) {
	fw, err := c.runRemote(ctx, spec)
	if err == nil {
		c.remote.Add(1)
		return service.FrontFromWire(fw), nil
	}
	if errors.Is(err, errAuth) {
		return nil, fmt.Errorf("gateway client: %s: %w", c.base, err)
	}
	c.local.Add(1)
	return local()
}

// runRemote submits spec, waiting out 429s, then long-polls the job until
// it is done or failed.
func (c *Client) runRemote(ctx context.Context, spec *service.JobSpec) (*service.FrontWire, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	jw, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	for busy := (*busyError)(nil); errors.As(err, &busy); {
		if !sleepCtx(ctx, busy.after) {
			return nil, ctx.Err()
		}
		jw, err = c.do(ctx, http.MethodPost, "/v1/jobs", body)
	}
	if err != nil {
		return nil, err
	}
	id := jw.ID
	var outage time.Time // start of the current run of transient failures
	for attempt := 0; ; {
		switch {
		case err == nil && jw.State == service.StateDone:
			if jw.Front == nil {
				return nil, fmt.Errorf("job %s done without a front", id)
			}
			return jw.Front, nil
		case err == nil && jw.State == service.StateFailed:
			return nil, fmt.Errorf("job %s failed: %s", id, jw.Error)
		case err == nil && jw.State != service.StateCancelled:
			outage, attempt = time.Time{}, 0
		case err == nil || errors.Is(err, errTransient):
			// The client never cancels its jobs, so a cancelled one was
			// aborted by a server going down; a durable server resumes it
			// under the same ID once it is back.
			if outage.IsZero() {
				outage = time.Now()
			} else if time.Since(outage) > waitOutage {
				return nil, fmt.Errorf("job %s: no answer for %s", id, waitOutage)
			}
			attempt++
			if !c.backoff.sleep(ctx, attempt) {
				return nil, ctx.Err()
			}
		default:
			return nil, err
		}
		jw, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/wait?timeout="+waitSlice.String(), nil)
	}
}

// do sends one request and decodes the job status it answers with.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*service.JobWire, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTransient, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTransient, err)
	}
	switch status := resp.StatusCode; {
	case status == http.StatusUnauthorized:
		return nil, errAuth
	case status == http.StatusTooManyRequests:
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return nil, &busyError{after: time.Duration(max(secs, 1)) * time.Second}
	case status >= 500:
		return nil, fmt.Errorf("%w: %s %s: %s", errTransient, method, path, resp.Status)
	case status >= 300:
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(blob)))
	}
	var jw service.JobWire
	if err := json.Unmarshal(blob, &jw); err != nil {
		return nil, fmt.Errorf("decoding %s %s: %w", method, path, err)
	}
	return &jw, nil
}
