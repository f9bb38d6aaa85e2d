package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
)

// TestClientContextCancellation verifies a blocked client unblocks promptly
// when its context is cancelled mid-session (failure injection: the server
// stops mid-round and never answers again).
func TestClientContextCancellation(t *testing.T) {
	srv, _ := newSyncServer(t, asyncfl.Config{
		InitialParams: []float64{0}, Rule: aggregate.NewMean(), LR: 0.1, TargetSteps: 100,
	}, ServerConfig{Clients: 2, RoundTimeout: 30 * time.Second}) // expects 2, only 1 will come
	defer srv.Close()

	serverCtx, serverCancel := context.WithCancel(context.Background())
	defer serverCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(serverCtx) // will fail: registration never completes
	}()

	clientCtx, clientCancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(clientCtx, ClientConfig{
			Addr: srv.Addr().String(), ID: "lonely",
			Compute: func(int, []float64) ([]float64, error) { return []float64{0}, nil },
		})
		done <- err
	}()

	// Give the client time to connect and block waiting for round 0,
	// then cancel it.
	time.Sleep(200 * time.Millisecond)
	clientCancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled client returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not unblock after context cancellation")
	}
	serverCancel()
	srv.Close()
	wg.Wait()
}

// TestServerTimesOutSilentClient verifies the round timeout: a client that
// registers but never uploads a gradient is dropped instead of hanging the
// cohort forever — and a cohort of one has nobody left, so Serve fails.
func TestServerTimesOutSilentClient(t *testing.T) {
	srv, _ := newSyncServer(t, asyncfl.Config{
		InitialParams: []float64{0}, Rule: aggregate.NewMean(), LR: 0.1, TargetSteps: 3,
	}, ServerConfig{Clients: 1, RoundTimeout: 500 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx) }()

	// A client that registers and then stalls forever.
	clientDone := make(chan error, 1)
	go func() {
		_, err := RunClient(ctx, ClientConfig{
			Addr: srv.Addr().String(), ID: "silent",
			Compute: func(int, []float64) ([]float64, error) {
				<-ctx.Done() // never answer
				return nil, ctx.Err()
			},
		})
		clientDone <- err
	}()

	select {
	case err := <-serveDone:
		if err == nil {
			t.Error("server completed despite a silent client")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not time out the silent client")
	}
	cancel()
	<-clientDone
}
