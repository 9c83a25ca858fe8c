package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"butterfly/serveapi"
)

// TestCancelledKernelFreesSlot: a request whose deadline expires
// mid-kernel answers 504, and its kernel stops at its next checkpoint,
// so the admission slot frees within a small fraction of what an
// uncancelled run of the same kernel — timed first — takes. Covers the
// vertex top-k and the shard wedge-partial export on the github
// stand-in. (?debug=true keeps both runs off the result cache.)
func TestCancelledKernelFreesSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("times full kernel runs; CI's kernel matrix step runs it")
	}
	s, c := newTestServer(t, Config{MaxInFlight: 1})
	ctx := context.Background()
	for _, scale := range []int{2, 4} {
		name := fmt.Sprintf("gh%d", scale)
		if _, err := c.Register(ctx, serveapi.RegisterRequest{Name: name, Dataset: "github", Scale: scale}); err != nil {
			t.Fatalf("register github@%d: %v", scale, err)
		}
	}
	base := urlOf(t, c)
	for _, tc := range []struct {
		name string
		do   func(timeoutMS int) *http.Response
	}{
		{"vertex top-k", func(timeoutMS int) *http.Response {
			resp, _ := rawDo(t, "POST", base+"/v1/graphs/gh2/vertex-counts?debug=true",
				fmt.Sprintf(`{"top":5,"timeout_ms":%d}`, timeoutMS))
			return resp
		}},
		{"partial export", func(timeoutMS int) *http.Response {
			resp, _ := rawDo(t, "GET", fmt.Sprintf("%s/v1/internal/partial/gh4?debug=true&timeout_ms=%d", base, timeoutMS), "")
			return resp
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			if resp := tc.do(60000); resp.StatusCode != http.StatusOK {
				t.Fatalf("uncancelled run: status %d", resp.StatusCode)
			}
			full := time.Since(start)

			timeout := max(full/5, time.Millisecond)
			if resp := tc.do(int(timeout / time.Millisecond)); resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("cancelled run (timeout %v, uncancelled %v): status %d, want 504", timeout, full, resp.StatusCode)
			}
			answered := time.Now()
			bound := full/4 + 10*time.Millisecond
			for s.lim.inFlight() > 0 {
				if waited := time.Since(answered); waited > bound {
					t.Fatalf("slot still held %v after the 504 (bound %v); an uncancelled run takes %v", waited, bound, full)
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	}
}
