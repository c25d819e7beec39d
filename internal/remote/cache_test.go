package remote

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/rescache"
)

// cachePeerStub is a minimal /v1/cache peer: an LRU behind the wire
// protocol, counting lookups and fills.
type cachePeerStub struct {
	store   *rescache.LRU
	lookups atomic.Int64
	fills   atomic.Int64
}

func newCachePeerStub() *cachePeerStub {
	return &cachePeerStub{store: rescache.NewLRU(0, 0)}
}

func (s *cachePeerStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/cache/lookup":
		s.lookups.Add(1)
		var req cacheLookupRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		enc := json.NewEncoder(w)
		for _, k := range req.Keys {
			row := cacheRow{Key: k}
			if v, ok := s.store.Get(r.Context(), k); ok {
				row.Found, row.Value = true, v
			}
			enc.Encode(row)
		}
	case "/v1/cache/fill":
		s.fills.Add(1)
		var req cacheFillRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, e := range req.Entries {
			s.store.Put(r.Context(), e.Key, e.Value)
		}
		json.NewEncoder(w).Encode(cacheFillReply{Stored: len(req.Entries)})
	default:
		http.NotFound(w, r)
	}
}

func TestNewCacheClientRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "host:9009", "ftp://host", "http://"} {
		if _, err := NewCacheClientWith(bad, 0); err == nil {
			t.Errorf("NewCacheClientWith(%q, 0) accepted a bad URL", bad)
		}
	}
	c, err := NewCacheClientWith("http://host:9009/", 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Peer() != "http://host:9009" {
		t.Errorf("Peer() = %q, want normalized base", c.Peer())
	}
}

func TestCacheClientRoundTrip(t *testing.T) {
	peer := newCachePeerStub()
	srv := httptest.NewServer(peer)
	defer srv.Close()
	c, err := NewCacheClientWith(srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, ok := c.Get(ctx, "k1"); ok {
		t.Fatal("empty peer answered a lookup")
	}
	c.PutBatch(ctx, []rescache.Entry{{Key: "k1", Val: []byte(`{"ok":true,"worker":-1}`)}})
	v, ok := c.Get(ctx, "k1")
	if !ok {
		t.Fatal("filled key missed")
	}
	var row struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(v, &row); err != nil || !row.OK {
		t.Fatalf("round-tripped value %q: %v", v, err)
	}
	st := c.Stats()
	if st.PeerHits != 1 || st.PeerMisses != 1 || st.PeerErrors != 0 {
		t.Fatalf("stats %+v, want 1 peer hit / 1 miss / 0 errors", st)
	}
}

func TestCacheClientDegradesOnDeadAndOldPeers(t *testing.T) {
	// A dead peer: every op degrades to a miss and a PeerErrors tick.
	srv := httptest.NewServer(http.NotFoundHandler())
	dead, err := NewCacheClientWith(srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	ctx := context.Background()
	if _, ok := dead.Get(ctx, "k"); ok {
		t.Fatal("dead peer answered a lookup")
	}
	dead.PutBatch(ctx, []rescache.Entry{{Key: "k", Val: []byte(`{}`)}})
	if st := dead.Stats(); st.PeerErrors != 2 {
		t.Fatalf("stats %+v, want 2 peer errors", st)
	}

	// A peer predating the cache protocol answers 404: a standing
	// miss, not an error — mixed-version fleets stay healthy.
	old := httptest.NewServer(http.NotFoundHandler())
	defer old.Close()
	oc, err := NewCacheClientWith(old.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := oc.Get(ctx, "k"); ok {
		t.Fatal("pre-cache peer answered a lookup")
	}
	oc.PutBatch(ctx, []rescache.Entry{{Key: "k", Val: []byte(`{}`)}})
	if st := oc.Stats(); st.PeerErrors != 0 || st.PeerMisses != 1 {
		t.Fatalf("stats %+v, want a clean miss against a pre-cache peer", st)
	}

	// A peer predating the epoch field sends found rows with none: on
	// any other epoch than 0 that is a standing miss and one epoch
	// reject, never a replay of another generation's row.
	preEpoch := newCachePeerStub()
	preEpoch.store.Put(ctx, "k", []byte(`{"ok":true}`))
	pre := httptest.NewServer(preEpoch)
	defer pre.Close()
	pc, err := NewCacheClientWith(pre.URL, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pc.Get(ctx, "k"); ok {
		t.Fatal("an epoch-less found row answered an epoch-5 lookup")
	}
	if st := pc.Stats(); st.EpochRejects != 1 || st.PeerMisses != 1 || st.PeerHits != 0 || st.PeerErrors != 0 {
		t.Fatalf("stats %+v, want 1 epoch reject / 1 peer miss", st)
	}

	// Garbage in the reply stream degrades to a miss, not a panic.
	garbled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>not ndjson</html>\n"))
	}))
	defer garbled.Close()
	gc, err := NewCacheClientWith(garbled.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gc.Get(ctx, "k"); ok {
		t.Fatal("garbled reply answered a lookup")
	}
	if st := gc.Stats(); st.PeerErrors != 1 {
		t.Fatalf("stats %+v, want the garbled reply counted as a peer error", st)
	}
}

func TestNewResultCacheTier(t *testing.T) {
	peer := newCachePeerStub()
	srv := httptest.NewServer(peer)
	defer srv.Close()

	if _, err := NewResultCacheWith(ResultCacheConfig{Peers: []string{"not a url"}}); err == nil {
		t.Fatal("bad cache peer URL accepted")
	}

	tier, err := NewResultCacheWith(ResultCacheConfig{Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A value seeded on the peer is found remotely and filled locally:
	// the second lookup never leaves the process.
	peer.store.Put(ctx, "warm", []byte(`{"ok":true}`))
	if _, ok := tier.Get(ctx, "warm"); !ok {
		t.Fatal("peer-seeded key missed")
	}
	before := peer.lookups.Load()
	if _, ok := tier.Get(ctx, "warm"); !ok {
		t.Fatal("locally filled key missed")
	}
	if peer.lookups.Load() != before {
		t.Fatal("second lookup went back to the peer")
	}

	// A local Put fans out write-behind so the peer can answer the rest
	// of the fleet; Close drains the queue, so the fill has landed once
	// it returns.
	tier.Put(ctx, "fresh", []byte(`{"ok":true}`))
	if err := tier.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := peer.store.Get(ctx, "fresh"); !ok {
		t.Fatal("Put did not reach the peer after drain")
	}
	st := tier.Stats()
	if st.Hits != 2 || st.PeerHits != 1 || st.PeerErrors != 0 {
		t.Fatalf("stats %+v, want 2 hits / 1 peer hit / 0 errors", st)
	}
}
