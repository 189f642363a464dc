package service

import "container/list"

// FrontCache is a fixed-capacity least-recently-used map from spec hashes
// to finished fronts: the first result tier of a Table. Not safe for
// concurrent use; the table guards it with its own mutex.
type FrontCache struct {
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key   string
	front *FrontWire
}

func NewFrontCache(capacity int) *FrontCache {
	if capacity < 1 {
		capacity = 1
	}
	return &FrontCache{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached front and refreshes its recency.
func (c *FrontCache) Get(key string) (*FrontWire, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).front, true
}

// Add inserts or refreshes an entry, evicting the least recently used one
// beyond capacity.
func (c *FrontCache) Add(key string, front *FrontWire) {
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

// Len is the current entry count.
func (c *FrontCache) Len() int { return c.order.Len() }
