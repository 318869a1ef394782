package serve

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"sync"
)

// The query-path fast lane: every cacheable response (polyline JSON,
// classify JSON, range JSON, raster JSON and PGM) is rendered once per
// snapshot version and then served as stored bytes. Correctness rests on
// one structural rule: a cache key always carries the version of the
// snapshot the bytes were rendered from, and the render closure reads
// only that immutable snapshot. Bytes for (version, key) are therefore
// eternally valid — invalidation is purely a memory concern (the LRU
// bound plus dropping superseded versions on publish), never a
// correctness one, and an ETag can never name bytes of another version.
//
// A failed round publishes nothing, so a degraded deployment's cache
// keeps serving the last good version's bytes untouched; the next
// successful round publishes a fresh version, which purges the old
// entries. Concurrent
// cold misses on one key coalesce singleflight-style: the first request
// renders, the rest wait and share the bytes.

// cacheArtifact is one stored response body.
type cacheArtifact struct {
	version int
	key     string
	body    []byte
	ct      string
}

// cacheFill tracks one in-flight render; waiters block on done.
type cacheFill struct {
	done chan struct{}
	body []byte
	ct   string
	err  error
}

// artifactCache is a per-deployment, snapshot-version-keyed response
// cache: a bounded LRU over fully encoded bodies with singleflight fill
// dedup. Safe for concurrent use.
type artifactCache struct {
	mu    sync.Mutex
	max   int
	order *list.List               // front = most recently used
	byKey map[string]*list.Element // versioned key -> *cacheArtifact element
	fills map[string]*cacheFill
	// keep is the version the last invalidate kept: a fill for an older
	// version that finishes afterwards is served but not stored.
	keep int
}

func newArtifactCache(maxEntries int) *artifactCache {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &artifactCache{
		max:   maxEntries,
		order: list.New(),
		byKey: make(map[string]*list.Element),
		fills: make(map[string]*cacheFill),
	}
}

// versionedKey is the full cache key; version first so invalidate can
// trust the artifact's recorded version instead of parsing.
func versionedKey(version int, key string) string {
	// Small, allocation-cheap: version rarely exceeds a few digits.
	b := make([]byte, 0, len(key)+12)
	b = appendInt(b, version)
	b = append(b, '|')
	b = append(b, key...)
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// getOrFill returns the cached body for (version, key), rendering it via
// render on a miss. Concurrent misses on the same key share one render:
// exactly one caller runs render, the rest park on the fill and are
// counted as singleflight_coalesced. A render error is returned to every
// waiter and caches nothing.
func (c *artifactCache) getOrFill(version int, key string, render func() ([]byte, string, error)) ([]byte, string, error) {
	vk := versionedKey(version, key)
	c.mu.Lock()
	if el, ok := c.byKey[vk]; ok {
		c.order.MoveToFront(el)
		art := el.Value.(*cacheArtifact)
		c.mu.Unlock()
		serveVars().Add("cache_hits", 1)
		return art.body, art.ct, nil
	}
	if f, ok := c.fills[vk]; ok {
		c.mu.Unlock()
		serveVars().Add("singleflight_coalesced", 1)
		<-f.done
		return f.body, f.ct, f.err
	}
	f := &cacheFill{done: make(chan struct{})}
	c.fills[vk] = f
	c.mu.Unlock()
	serveVars().Add("cache_misses", 1)

	rendered := false
	defer func() {
		if !rendered {
			// render panicked: retire the fill with an error so parked
			// waiters and later requests for this key do not block on
			// it forever, and let the panic carry on up.
			f.err = errRenderPanicked
			c.finish(version, vk, f)
		}
	}()
	f.body, f.ct, f.err = render()
	rendered = true
	c.finish(version, vk, f)
	return f.body, f.ct, f.err
}

// errRenderPanicked is the error waiters coalesced on a fill see when its
// render panicked.
var errRenderPanicked = errors.New("render panicked")

// finish retires a fill: it unregisters it, caches a successful body
// unless a newer version was published while it rendered, and wakes the
// callers parked on it.
func (c *artifactCache) finish(version int, vk string, f *cacheFill) {
	c.mu.Lock()
	delete(c.fills, vk)
	if f.err == nil && version >= c.keep {
		c.store(version, vk, f.body, f.ct)
	}
	c.mu.Unlock()
	close(f.done)
}

// store inserts one artifact and evicts past the LRU bound; called with
// c.mu held.
func (c *artifactCache) store(version int, vk string, body []byte, ct string) {
	if el, ok := c.byKey[vk]; ok {
		// A concurrent fill of the same key can land twice across an
		// invalidate; keep the newer bytes, same version-keyed contents.
		c.order.MoveToFront(el)
		el.Value = &cacheArtifact{version: version, key: vk, body: body, ct: ct}
		return
	}
	c.byKey[vk] = c.order.PushFront(&cacheArtifact{version: version, key: vk, body: body, ct: ct})
	for c.order.Len() > c.max {
		last := c.order.Back()
		art := last.Value.(*cacheArtifact)
		c.order.Remove(last)
		delete(c.byKey, art.key)
		serveVars().Add("cache_evictions", 1)
	}
}

// invalidate drops every entry whose version differs from keep — called
// on publish (and restore), where keep is the freshly published version.
// Entries of the kept version survive: re-publishing the same version
// never happens (the counter is monotone), and the degraded path
// publishes nothing at all, so the last good version's bytes keep
// serving through failed rounds.
func (c *artifactCache) invalidate(keep int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keep = keep
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		art := el.Value.(*cacheArtifact)
		if art.version != keep {
			c.order.Remove(el)
			delete(c.byKey, art.key)
			serveVars().Add("cache_invalidated", 1)
		}
	}
}

// len reports the number of cached artifacts (tests).
func (c *artifactCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// encodeBuffers pools the scratch buffers every response render encodes
// into; the stored artifact copies the bytes out so buffers recycle
// immediately.
var encodeBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeJSON renders v exactly as writeJSON's encoder does (sorted map
// keys, trailing newline) into pooled scratch, returning a private copy.
func encodeJSON(v any) ([]byte, error) {
	buf := encodeBuffers.Get().(*bytes.Buffer)
	defer encodeBuffers.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}
