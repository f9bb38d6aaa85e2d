package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"github.com/signguard/signguard/internal/asyncfl"
)

// ServerConfig describes the gob wire of a synchronous deployment. What is
// aggregated, how and for how many rounds is the aggregator's configuration
// (asyncfl.Config), not the wire's.
type ServerConfig struct {
	// Addr is the TCP listen address (use "127.0.0.1:0" for tests).
	Addr string
	// Clients is the number of participants the server waits for; rounds
	// are fully synchronous, matching the paper's setting.
	Clients int
	// RoundTimeout bounds each network wait (0 = 30s default). A slow or
	// crashed client is dropped from the cohort rather than hanging it.
	RoundTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Server is the synchronous gob wire over an asyncfl.Aggregator: it accepts
// the cohort, broadcasts the aggregator's model each round, gathers one
// gradient per connection and submits them. Screening, defense, merge and
// the optimizer step all happen inside the aggregator — read the model,
// history and counters from it.
type Server struct {
	cfg ServerConfig
	agg *asyncfl.Aggregator
	ln  net.Listener
}

// NewServer binds the listen socket in front of agg. For the paper's
// lock-step rounds build the aggregator with K = cfg.Clients, Alpha = 0,
// TargetSteps = the number of rounds and SessionTTL < 0 (the wire has its
// own timeout; a minute-long round must not expire sessions). Call Serve to
// run the protocol.
func NewServer(cfg ServerConfig, agg *asyncfl.Aggregator) (*Server, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("transport: %d clients invalid", cfg.Clients)
	}
	if agg == nil {
		return nil, errors.New("transport: NewServer needs an aggregator")
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addr, err)
	}
	return &Server{cfg: cfg, agg: agg, ln: ln}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close shuts the listen socket down, unblocking a Serve call waiting in
// Accept. Serve also closes the listener when it returns; Close exists for
// callers — tests above all — that must abort registration from outside
// without reaching into server internals. Closing an already-closed server
// returns the listener's error and is otherwise harmless.
func (s *Server) Close() error { return s.ln.Close() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// clientConn is one registered participant. id is the self-declared Hello
// name, used only in log lines; key — the connection's registration index —
// is what the aggregator knows it by, so a Byzantine client cannot claim
// another's session.
type clientConn struct {
	id, key string
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
}

// Serve runs the full protocol: accept Clients participants, run one
// synchronous round per aggregation step until the aggregator is Done,
// broadcast the final model, and shut down. A connection that times out or
// breaks the protocol is dropped and the round aggregates what arrived;
// Serve fails when a round does not advance the model (nobody left, or the
// defense refused the buffer) or the context is cancelled.
func (s *Server) Serve(ctx context.Context) error {
	defer s.ln.Close()

	conns, err := s.acceptAll(ctx)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range conns {
			c.conn.Close()
		}
	}()
	s.logf("transport: %d clients registered", len(conns))

	round, params, done := s.agg.Model()
	for !done {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("transport: cancelled before round %d: %w", round, err)
		}
		conns = s.runRound(round, params, conns)
		next, nextParams, nextDone := s.agg.Model()
		if next == round {
			st := s.agg.Stats()
			return fmt.Errorf("transport: round %d did not advance the model: %d of %d clients left, %d rule errors, %d empty selections, %d rejects (%d non-finite)",
				round, len(conns), s.cfg.Clients, st.RuleErrors, st.EmptySelects, st.Rejects, st.NonFiniteRejects)
		}
		round, params, done = next, nextParams, nextDone
	}

	// Final broadcast: the trained model.
	final := ModelUpdate{Round: round, Params: params, Done: true}
	for _, c := range conns {
		c.conn.SetWriteDeadline(time.Now().Add(s.cfg.RoundTimeout))
		if err := c.enc.Encode(&final); err != nil {
			s.logf("transport: final broadcast to %s failed: %v", c.id, err)
		}
	}
	s.logf("transport: training complete")
	return nil
}

// acceptAll waits for exactly cfg.Clients registrations. A connection that
// fails to deliver its Hello within the timeout is dropped and its slot
// stays open for the next dialer.
func (s *Server) acceptAll(ctx context.Context) ([]*clientConn, error) {
	deadline := time.Now().Add(s.cfg.RoundTimeout * 4)
	conns := make([]*clientConn, 0, s.cfg.Clients)
	for len(conns) < s.cfg.Clients {
		if err := ctx.Err(); err != nil {
			break
		}
		if tl, ok := s.ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := s.ln.Accept()
		if err != nil {
			for _, c := range conns {
				c.conn.Close()
			}
			return nil, fmt.Errorf("transport: accept: %w", err)
		}
		cc := &clientConn{
			conn: conn,
			enc:  gob.NewEncoder(conn),
			dec:  gob.NewDecoder(conn),
		}
		conn.SetReadDeadline(time.Now().Add(s.cfg.RoundTimeout))
		var hello Hello
		if err := cc.dec.Decode(&hello); err != nil {
			conn.Close()
			s.logf("transport: registration failed: %v", err)
			continue
		}
		conn.SetReadDeadline(time.Time{})
		cc.id, cc.key = hello.ClientID, strconv.Itoa(len(conns))
		conns = append(conns, cc)
		s.logf("transport: client %q registered (%d/%d)", cc.id, len(conns), s.cfg.Clients)
	}
	if err := ctx.Err(); err != nil {
		for _, c := range conns {
			c.conn.Close()
		}
		return nil, fmt.Errorf("transport: cancelled during registration: %w", err)
	}
	return conns, nil
}

// runRound broadcasts the model and gathers one gradient per client, in
// parallel so the round latency is the slowest client, not the sum, then
// submits what arrived to the aggregator in connection order — the K-th
// accepted arrival steps it; a round the screen or a dropped connection left
// short is flushed. It returns the connections still in the cohort.
func (s *Server) runRound(round int, params []float64, conns []*clientConn) []*clientConn {
	update := ModelUpdate{Round: round, Params: params}
	grads := make([][]float64, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *clientConn) {
			defer wg.Done()
			deadline := time.Now().Add(s.cfg.RoundTimeout)
			c.conn.SetWriteDeadline(deadline)
			if err := c.enc.Encode(&update); err != nil {
				errs[i] = fmt.Errorf("send: %w", err)
				return
			}
			c.conn.SetReadDeadline(deadline)
			var up GradientUpload
			if err := c.dec.Decode(&up); err != nil {
				errs[i] = fmt.Errorf("receive: %w", err)
				return
			}
			if up.Round != round {
				errs[i] = fmt.Errorf("answered round %d", up.Round)
				return
			}
			grads[i] = up.Grad
		}(i, c)
	}
	wg.Wait()

	live, stepped := conns[:0], false
	for i, c := range conns {
		if errs[i] == nil {
			var res asyncfl.SubmitResult
			res, errs[i] = s.agg.Submit(asyncfl.Update{Client: c.key, Version: round, Grad: grads[i]})
			stepped = stepped || res.Stepped
		}
		if errs[i] != nil {
			s.logf("transport: round %d: client %q dropped: %v", round, c.id, errs[i])
			c.conn.Close()
			continue
		}
		live = append(live, c)
	}
	if !stepped {
		s.agg.Flush()
	}
	return live
}
