package gateway

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// backoff produces jittered exponential retry delays: 100ms doubling per
// attempt up to a 5s cap, plus up to 50% random jitter so synchronized
// clients de-correlate their retry storms. It is the retry policy shared
// by the lease agents and the job-API client. Safe for concurrent use.
type backoff struct {
	mu  sync.Mutex
	rng *rand.Rand
}

const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

func newBackoff() *backoff {
	return &backoff{rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
}

// delay computes the pre-retry delay for the given attempt (1-based).
func (b *backoff) delay(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := backoffBase << (attempt - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	b.mu.Lock()
	jitter := time.Duration(b.rng.Int63n(int64(d)/2 + 1))
	b.mu.Unlock()
	return d + jitter
}

// sleep waits out the delay for attempt, returning false if ctx ends first.
func (b *backoff) sleep(ctx context.Context, attempt int) bool {
	return sleepCtx(ctx, b.delay(attempt))
}

// sleepCtx sleeps for d, returning false if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// probe reports whether the HTTP service at baseURL (already normalized,
// no trailing slash) answers GET /healthz with 200 within timeout.
func probe(client *http.Client, baseURL string, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// normalizeURL accepts "host:port" or a full URL and returns a base URL
// without a trailing slash; empty or whitespace input returns "".
func normalizeURL(raw string) string {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	if raw == "" {
		return ""
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	return raw
}
