package server

import (
	"fmt"
	"testing"

	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

func respWithNodes(n int64) *solveResponse {
	return &solveResponse{Decision: "feasible", Nodes: n}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(2, reg)

	c.Put("a", respWithNodes(1), &model.Instance{})
	c.Put("b", respWithNodes(2), &model.Instance{})
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", respWithNodes(3), &model.Instance{}) // evicts b

	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should be resident", k)
		}
	}
	if got := reg.Counter(obs.MetricCacheEvictions).Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := reg.Gauge(obs.MetricCacheSize).Value(); got != 2 {
		t.Fatalf("size gauge = %d, want 2", got)
	}
}

func TestCacheReplaceExisting(t *testing.T) {
	c := NewCache(4, obs.NewRegistry())
	c.Put("k", respWithNodes(1), &model.Instance{})
	c.Put("k", respWithNodes(2), &model.Instance{})
	if c.Len() != 1 {
		t.Fatalf("len = %d after double put", c.Len())
	}
	e, ok := c.Get("k")
	if !ok || e.value.Nodes != 2 {
		t.Fatalf("got %+v, want replaced entry", e.value)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0, obs.NewRegistry())
	c.Put("k", respWithNodes(1), &model.Instance{})
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache served an entry")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache retained an entry")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(8, obs.NewRegistry())
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%16)
				c.Put(k, respWithNodes(int64(i)), &model.Instance{})
				c.Get(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Len() > 8 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
}
