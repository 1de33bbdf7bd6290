package sweep

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
	"unsafe"

	"bulktx/internal/faultinject"
	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
)

// cacheSchema versions the cache key space. Bump it whenever the
// simulator's behavior changes (new charging rule, protocol fix, ...):
// old entries become unreachable instead of silently stale. Deleting
// the cache directory is always safe — entries are pure memoization.
//
// Known exception kept at schema 1: the Scenario redesign changed
// topo.Grid's degenerate n<=3 layouts (corner frame -> mid-field row).
// Entries for such configs — which cannot host a meaningful sweep
// (at most n-1 senders) and were never produced by the shipped specs —
// would be stale; delete the cache directory if you ever swept them.
const cacheSchema = 1

// Key derives the content key of one run: a SHA-256 over the cache
// schema version and the canonical JSON encoding of the full
// configuration (including the seed). Two configs share a key iff they
// describe the same simulation.
func Key(cfg netsim.Config) (string, error) {
	enc, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("sweep: encoding config key: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "bulktx-sweep-v%d:", cacheSchema)
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// JobKeys derives the per-cell content key of every job in the list —
// the same keys Pool uses for its cache and intra-batch dedupe. Index i
// of the result is job i's key; duplicate configurations yield
// duplicate keys.
func JobKeys(jobs []Job) ([]string, error) {
	keys := make([]string, len(jobs))
	for i, job := range jobs {
		key, err := Key(job.Config)
		if err != nil {
			return nil, err
		}
		keys[i] = key
	}
	return keys, nil
}

// JobsKey derives the content key of a whole compiled job list: a
// SHA-256 over the cache schema version and every job's configuration
// key, in job order. Two submissions share a key iff they compile to
// the same simulations in the same order — the dedupe identity used by
// the HTTP service to collapse identical spec submissions onto one job.
func JobsKey(jobs []Job) (string, error) {
	keys, err := JobKeys(jobs)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "bulktx-sweep-jobs-v%d:", cacheSchema)
	for _, key := range keys {
		fmt.Fprintf(h, "%s\n", key)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Cache memoizes run results by content key. The in-memory tier is
// always on; when constructed with NewDiskCache, entries are also
// persisted as one JSON file per key under the cache directory, so
// results survive across processes. All methods are safe for
// concurrent use.
//
// The memory tier holds each result packed (see cacheEntry): Put keeps
// no reference to the caller's slices, and every Get returns fresh
// ones, so callers may modify what they put or got. The tier is
// unbounded unless SetMemoryBudget caps it, in which case the least
// recently used entries are evicted to stay within the budget. An
// evicted entry of a disk-backed cache is re-read from its file by the
// next Get; a memory-only cache simply misses and the caller
// re-simulates the same bytes.
type Cache struct {
	mu        sync.Mutex
	mem       map[string]*list.Element // values are *cacheEntry
	lru       list.List                // front = most recently used
	bytes     int64                    // sum of the entries' footprints
	budget    int64                    // 0 = unbounded
	evictions int64
	dir       string // "" = memory only
}

// CacheStats is a snapshot of a Cache's memory tier.
type CacheStats struct {
	// Entries is the number of results held in memory.
	Entries int
	// Bytes is the memory tier's accounted footprint: packed delays,
	// the private PerNode ledgers and a fixed per-entry overhead.
	Bytes int64
	// Evictions counts entries dropped to stay within the budget.
	Evictions int64
}

// NewCache returns an in-memory (process-lifetime) cache.
func NewCache() *Cache {
	return &Cache{mem: make(map[string]*list.Element)}
}

// cacheEntry is one result in the memory tier. Per-packet delays are
// most of a result's bytes, so they are stored as zigzag varints of
// the difference to the previous delay (the first against zero): about
// 4 bytes per delay in the paper's runs instead of 8. Differences wrap
// in int64, and decoding wraps them back, so every value round-trips
// exactly.
type cacheEntry struct {
	key    string
	res    netsim.Result // Delays nil, PerNode a private copy
	delays []byte
	n      int   // len(Delays), or -1 for a nil Delays
	size   int64 // footprint, see entryOverhead
}

// entryOverhead is the footprint charged to every memory-tier entry on
// top of its packed delays and PerNode ledgers: the entry itself, its
// LRU list element, its 64-byte hex key and a map slot.
const entryOverhead = int64(unsafe.Sizeof(cacheEntry{})+unsafe.Sizeof(list.Element{})) + 64 + 32

// packResult builds the memory-tier entry of res under key.
func packResult(key string, res netsim.Result) *cacheEntry {
	e := &cacheEntry{key: key, n: -1}
	if res.Delays != nil {
		e.n = len(res.Delays)
		// Size the buffer exactly: its capacity is what the budget charges.
		size, prev := 0, int64(0)
		for _, d := range res.Delays {
			size += uvarintLen(zigzag(int64(d) - prev))
			prev = int64(d)
		}
		e.delays, prev = make([]byte, 0, size), 0
		for _, d := range res.Delays {
			e.delays = binary.AppendUvarint(e.delays, zigzag(int64(d)-prev))
			prev = int64(d)
		}
	}
	e.res = res
	e.res.Delays = nil
	e.res.PerNode = clonePerNode(res.PerNode)
	e.size = entryOverhead + int64(cap(e.delays))
	for _, node := range e.res.PerNode {
		e.size += int64(unsafe.Sizeof(node))
		for _, r := range node.Radios {
			e.size += int64(unsafe.Sizeof(r)) + int64(len(r.States))*int64(unsafe.Sizeof(metrics.StateEnergy{}))
		}
	}
	return e
}

// result decodes the entry into a Result that shares no slices with it.
func (e *cacheEntry) result() netsim.Result {
	res := e.res
	res.PerNode = clonePerNode(e.res.PerNode)
	if e.n < 0 {
		return res
	}
	res.Delays = make([]time.Duration, e.n)
	buf, prev := e.delays, int64(0)
	for i := range res.Delays {
		u, k := binary.Uvarint(buf)
		buf = buf[k:]
		prev += int64(u>>1) ^ -int64(u&1)
		res.Delays[i] = time.Duration(prev)
	}
	return res
}

// zigzag maps signed to unsigned so small magnitudes of either sign
// take few varint bytes.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// uvarintLen is the length of binary.AppendUvarint's encoding of u.
func uvarintLen(u uint64) int { return 1 + (bits.Len64(u)-1)/7 }

// clonePerNode deep-copies a per-node breakdown, keeping nil and empty
// slices apart (their JSON encodings differ).
func clonePerNode(nodes []metrics.NodeEnergy) []metrics.NodeEnergy {
	if nodes == nil {
		return nil
	}
	out := slices.Clone(nodes)
	for i := range out {
		out[i].Radios = slices.Clone(out[i].Radios)
		for j := range out[i].Radios {
			out[i].Radios[j].States = slices.Clone(out[i].Radios[j].States)
		}
	}
	return out
}

// NewDiskCache returns a cache backed by dir (created if missing) in
// addition to the in-memory map.
func NewDiskCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: creating cache dir: %w", err)
	}
	return &Cache{mem: make(map[string]*list.Element), dir: dir}, nil
}

// SetMemoryBudget caps the memory tier at maxBytes of accounted
// footprint (see CacheStats.Bytes), evicting least recently used
// entries as needed; maxBytes <= 0 removes the cap. An entry larger
// than the whole budget is not kept in memory and evicts nothing.
func (c *Cache) SetMemoryBudget(maxBytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = max(maxBytes, 0)
	c.evictLocked()
}

// Stats snapshots the memory tier.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.mem), Bytes: c.bytes, Evictions: c.evictions}
}

// Dir reports the on-disk directory ("" for memory-only caches).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// lookup returns the key's memory-tier entry, marking it most recently
// used.
func (c *Cache) lookup(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.mem[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// store makes e the key's memory-tier entry, most recently used, and
// evicts down to the budget. An entry larger than the whole budget is
// dropped instead.
func (c *Cache) store(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget > 0 && e.size > c.budget {
		return
	}
	if old, ok := c.mem[e.key]; ok {
		c.bytes -= old.Value.(*cacheEntry).size
		c.lru.Remove(old)
	}
	c.mem[e.key] = c.lru.PushFront(e)
	c.bytes += e.size
	c.evictLocked()
}

// evictLocked drops least recently used entries until the tier fits
// its budget; c.mu must be held.
func (c *Cache) evictLocked() {
	for c.budget > 0 && c.bytes > c.budget {
		e := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.mem, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get looks the key up in memory, then (if configured) on disk.
// Disk corruption is treated as a miss, never an error.
func (c *Cache) Get(key string) (netsim.Result, bool) {
	if c == nil {
		return netsim.Result{}, false
	}
	if e, ok := c.lookup(key); ok {
		return e.result(), true
	}
	if c.dir == "" {
		return netsim.Result{}, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return netsim.Result{}, false
	}
	var disk netsim.Result
	if err := json.Unmarshal(data, &disk); err != nil {
		return netsim.Result{}, false
	}
	c.store(packResult(key, disk))
	return disk, true
}

// Put stores the result under key, persisting it to disk when the
// cache has a directory. Disk writes are atomic (temp file + rename)
// so a crashed run never leaves a truncated entry behind.
func (c *Cache) Put(key string, res netsim.Result) error {
	if c == nil {
		return nil
	}
	c.store(packResult(key, res))
	if c.dir == "" {
		return nil
	}
	// Deterministic chaos hook: lets tests and smokes fail the disk
	// tier without unplugging a disk. Free when no plan is active.
	if err := faultinject.Error(faultinject.CachePut, key); err != nil {
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sweep: encoding cached result: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	return nil
}
