package gateway

import (
	"container/list"

	"repro/internal/service"
)

// frontCache is a fixed-capacity least-recently-used map from spec hashes
// to finished fronts: the first result tier of the job table. Not safe
// for concurrent use; the table guards it with its own mutex.
type frontCache struct {
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key   string
	front *service.FrontWire
}

func newFrontCache(capacity int) *frontCache {
	if capacity < 1 {
		capacity = 1
	}
	return &frontCache{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached front and refreshes its recency.
func (c *frontCache) get(key string) (*service.FrontWire, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).front, true
}

// add inserts or refreshes an entry, evicting the least recently used one
// beyond capacity.
func (c *frontCache) add(key string, front *service.FrontWire) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).front = front
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, front: front})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

// len is the current entry count.
func (c *frontCache) len() int { return c.order.Len() }
