package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"butterfly/client"
	"butterfly/serveapi"
)

// TestRunServeAndShutdown boots the daemon on an ephemeral port with a
// preloaded dataset, exercises the API end to end, then delivers
// SIGTERM and checks the graceful drain path returns cleanly.
func TestRunServeAndShutdown(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-preload", "occupations@100",
			"-drain", "5s",
		}, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New("http://" + addr)

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
	if h.Graphs != 1 {
		t.Fatalf("preload registered %d graphs, want 1", h.Graphs)
	}
	info, err := c.GraphInfo(ctx, "occupations")
	if err != nil {
		t.Fatalf("graph info: %v", err)
	}
	resp, err := c.Count(ctx, "occupations", serveapi.CountRequest{})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if resp.Butterflies != info.Butterflies {
		t.Fatalf("count %d != preload count %d", resp.Butterflies, info.Butterflies)
	}

	// Graceful shutdown: the run goroutine catches SIGTERM, drains and
	// returns nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
}

// startDaemon boots run() in a goroutine and returns its address plus
// the exit channel.
func startDaemon(t *testing.T, args []string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, ready) }()
	select {
	case addr := <-ready:
		return addr, done
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	panic("unreachable")
}

// stopDaemon delivers SIGTERM and waits for a clean exit.
func stopDaemon(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
}

// TestRunDurableRestart is the daemon-level durability contract: boot
// with -data-dir, mutate a preloaded graph, restart over the same
// directory, and the second process must serve the identical count at
// the identical (graph, version) — with the preload skipped in favor
// of the recovered state.
func TestRunDurableRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-preload", "occupations@100",
		"-data-dir", dir,
		"-fsync", "never", // durability semantics, not disk stamina
		"-drain", "5s",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	addr, done := startDaemon(t, args)
	c := client.New("http://" + addr)
	mut, err := c.Mutate(ctx, "occupations", serveapi.MutateRequest{
		Deletes: [][2]int{{0, 0}, {1, 1}},
	})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if mut.Version != 2 {
		t.Fatalf("mutate produced v%d, want v2", mut.Version)
	}
	want, err := c.GraphInfo(ctx, "occupations")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, serveapi.RegisterRequest{
		Name: "inline", M: 2, N: 2, Edges: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
	}); err != nil {
		t.Fatalf("register inline: %v", err)
	}
	stopDaemon(t, done)

	// Second life. Same -preload: it must be skipped because the
	// recovered (mutated) graph is the acknowledged one.
	addr2, done2 := startDaemon(t, args)
	defer stopDaemon(t, done2)
	c2 := client.New("http://" + addr2)
	got, err := c2.GraphInfo(ctx, "occupations")
	if err != nil {
		t.Fatalf("occupations lost across restart: %v", err)
	}
	if got != want {
		t.Fatalf("restart state differs:\n got %+v\nwant %+v", got, want)
	}
	cnt, err := c2.Count(ctx, "occupations", serveapi.CountRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Butterflies != want.Butterflies || cnt.Version != want.Version {
		t.Fatalf("recovered count %d @ v%d, want %d @ v%d",
			cnt.Butterflies, cnt.Version, want.Butterflies, want.Version)
	}
	inline, err := c2.GraphInfo(ctx, "inline")
	if err != nil || inline.Butterflies != 1 {
		t.Fatalf("inline graph: %+v, %v (want 1 butterfly)", inline, err)
	}
	if _, err := c2.Checkpoint(ctx); err != nil {
		t.Fatalf("admin checkpoint on durable daemon: %v", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-preload", "occupations@zero", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("bad -preload scale accepted")
	}
	if err := run([]string{"-preload", "no-such-dataset", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("unknown -preload dataset accepted")
	}
	if err := run([]string{"-data-dir", t.TempDir(), "-fsync", "sometimes", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("bad -fsync policy accepted")
	}
}

// TestRunTenantsAndLegacyFlags boots the daemon with a -tenants file
// and -disable-legacy: requests are charged under the configured
// tenant (echoed back), the config is live on /admin/tenants, and the
// deprecated unversioned routes answer 410 Gone.
func TestRunTenantsAndLegacyFlags(t *testing.T) {
	tf := t.TempDir() + "/tenants.json"
	if err := os.WriteFile(tf, []byte(`{
		"default": {"weight": 1},
		"tenants": {"gold": {"rate": 100, "burst": 10, "weight": 4, "slo_ms": 100}}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-preload", "occupations@50",
			"-tenants", tf,
			"-disable-legacy",
			"-drain", "5s",
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c := client.New(base, client.WithTenant("gold"), client.WithPriority("batch"))
	if _, err := c.Count(ctx, "occupations", serveapi.CountRequest{}); err != nil {
		t.Fatalf("count as gold: %v", err)
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/graphs/occupations/count", strings.NewReader(`{}`))
	req.Header.Set(serveapi.TenantHeader, "gold")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(serveapi.TenantHeader); got != "gold" {
		t.Errorf("echoed tenant = %q, want gold", got)
	}

	// The file config is live on the admin endpoint.
	areq, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/admin/tenants", nil)
	aresp, err := http.DefaultClient.Do(areq)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if !strings.Contains(string(ab), `"gold"`) {
		t.Errorf("/admin/tenants missing configured tenant: %s", ab)
	}

	// Legacy surface is sunset.
	lreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/graphs/occupations/count", strings.NewReader(`{}`))
	lresp, err := http.DefaultClient.Do(lreq)
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusGone {
		t.Errorf("legacy route status = %d, want 410", lresp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server never drained")
	}
}

// TestLoadTenantsRejectsTypos: unknown fields in the -tenants file
// fail at startup rather than silently degrading to default QoS.
func TestLoadTenantsRejectsTypos(t *testing.T) {
	tf := t.TempDir() + "/tenants.json"
	if err := os.WriteFile(tf, []byte(`{"tenants": {"a": {"wieght": 4}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTenants(tf); err == nil {
		t.Fatal("typo'd tenant config accepted")
	}
	if _, err := loadTenants(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing tenant file accepted")
	}
}
