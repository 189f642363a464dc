package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Priority classes, highest first. The dequeue order across classes is
// weighted-fair (classWeights), so low-priority tenants are slowed under
// contention but never starved.
const (
	classHigh = iota
	classNormal
	classLow
	numClasses
)

// classWeights are the weighted-fair dequeue shares: at saturation the
// gateway serves high/normal/low jobs 6:3:1.
var classWeights = [numClasses]int64{6, 3, 1}

var classNames = [numClasses]string{"high", "normal", "low"}

func classOf(priority string) (int, bool) {
	switch priority {
	case "", "normal":
		return classNormal, true
	case "high":
		return classHigh, true
	case "low":
		return classLow, true
	}
	return 0, false
}

// TenantConfig is the static description of one tenant: its API key and
// the admission-control knobs applied to its traffic.
type TenantConfig struct {
	// Name identifies the tenant in metrics and job records.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <key>" (or
	// "X-API-Key: <key>") on every tenant-facing request.
	Key string `json:"key"`
	// RatePerSec / Burst shape the tenant's token bucket: submissions
	// beyond the rate get 429 + Retry-After. 0 disables rate limiting;
	// Burst defaults to max(1, ceil(RatePerSec)).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	// MaxActive caps the tenant's jobs that are queued or leased at once
	// (default 64): the per-tenant quota behind the global queue cap.
	MaxActive int `json:"max_active,omitempty"`
	// Priority selects the dequeue class: high, normal (default) or low.
	Priority string `json:"priority,omitempty"`
}

// TenantsFile is the on-disk tenant configuration (clrearlyd -tenants).
type TenantsFile struct {
	Tenants []TenantConfig `json:"tenants"`
}

// ParseTenants decodes and validates a tenant configuration document.
// Unknown fields, duplicate names or keys, non-finite rates and unknown
// priority classes are all rejected: a typo in an admission-control file
// should fail loudly at startup, not silently admit everyone.
func ParseTenants(data []byte) ([]TenantConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f TenantsFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("gateway: decoding tenant config: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("gateway: tenant config has trailing data")
	}
	if len(f.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: tenant config declares no tenants")
	}
	names := make(map[string]bool, len(f.Tenants))
	keys := make(map[string]bool, len(f.Tenants))
	for i := range f.Tenants {
		t := &f.Tenants[i]
		if t.Name == "" {
			return nil, fmt.Errorf("gateway: tenant %d has no name", i)
		}
		if t.Key == "" {
			return nil, fmt.Errorf("gateway: tenant %q has no key", t.Name)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("gateway: duplicate tenant name %q", t.Name)
		}
		if keys[t.Key] {
			return nil, fmt.Errorf("gateway: duplicate API key (tenant %q)", t.Name)
		}
		names[t.Name], keys[t.Key] = true, true
		if math.IsNaN(t.RatePerSec) || math.IsInf(t.RatePerSec, 0) || t.RatePerSec < 0 {
			return nil, fmt.Errorf("gateway: tenant %q rate_per_sec = %v must be finite and ≥ 0", t.Name, t.RatePerSec)
		}
		if t.Burst < 0 {
			return nil, fmt.Errorf("gateway: tenant %q burst = %d must be ≥ 0", t.Name, t.Burst)
		}
		if t.MaxActive < 0 {
			return nil, fmt.Errorf("gateway: tenant %q max_active = %d must be ≥ 0", t.Name, t.MaxActive)
		}
		if _, ok := classOf(t.Priority); !ok {
			return nil, fmt.Errorf("gateway: tenant %q priority %q is not high|normal|low", t.Name, t.Priority)
		}
	}
	return f.Tenants, nil
}

// bucket is a token bucket: tokens refill continuously at rate/s up to
// burst; each admitted submission spends one.
type bucket struct {
	rate   float64 // tokens per second; 0 = unlimited
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int) bucket {
	b := float64(burst)
	if b <= 0 {
		b = math.Ceil(rate)
		if b < 1 {
			b = 1
		}
	}
	return bucket{rate: rate, burst: b, tokens: b}
}

// take spends one token, or reports how long until one is available.
func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// tenant is the runtime state of one configured tenant.
type tenant struct {
	cfg   TenantConfig
	class int

	mu     sync.Mutex
	bucket bucket
	active int // jobs queued or leased right now

	admitted      atomic.Int64
	deduped       atomic.Int64
	rejectedRate  atomic.Int64
	rejectedQuota atomic.Int64
	rejectedQueue atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	cancelled     atomic.Int64
}

func newTenant(cfg TenantConfig) *tenant {
	if cfg.MaxActive == 0 {
		cfg.MaxActive = 64
	}
	class, _ := classOf(cfg.Priority)
	return &tenant{cfg: cfg, class: class, bucket: newBucket(cfg.RatePerSec, cfg.Burst)}
}

// admitRate charges the tenant's token bucket for one submission.
func (t *tenant) admitRate(now time.Time) (bool, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bucket.take(now)
}

// reserveActive claims one slot of the tenant's active-job quota.
func (t *tenant) reserveActive() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.MaxActive > 0 && t.active >= t.cfg.MaxActive {
		return false
	}
	t.active++
	return true
}

// releaseActive returns a quota slot when a job reaches a terminal state.
func (t *tenant) releaseActive() {
	t.mu.Lock()
	if t.active > 0 {
		t.active--
	}
	t.mu.Unlock()
}

func (t *tenant) activeNow() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}
