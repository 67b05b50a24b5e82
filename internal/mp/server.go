package mp

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler consumes decoded MP messages arriving over a transport.
type Handler func(Message)

// Server accepts Music Protocol connections over a real transport
// (TCP in the examples) and dispatches decoded messages to a handler.
// It is the network-facing version of the Pi: the paper's testbed runs
// this exact protocol between the Zodiac FX and the Raspberry Pi.
type Server struct {
	// Handler receives every valid decoded message.
	Handler Handler

	closed atomic.Bool
	mu     sync.Mutex // guards ln and done
	ln     net.Listener
	done   chan struct{} // closed when Serve returns
	wg     sync.WaitGroup
}

// deadliner is a listener whose Accept can time out, as TCP and Unix
// listeners' can: a closing Server drains its backlog through it.
type deadliner interface{ SetDeadline(time.Time) error }

// drainWait is how long a closing Server drains its accept backlog.
// Queued connections are accepted at once, and the drain's single
// deadline keeps a client that keeps connecting from holding Close
// open. Close therefore takes at least drainWait on a listener that
// supports deadlines.
const drainWait = 20 * time.Millisecond

// Serve accepts connections on ln until Close. It returns nil after a
// clean Close, or the accept error otherwise. Once closed — also when
// Close ran first — Serve serves the connections ln has already
// queued, closes ln and returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	draining := s.closed.Load()
	if !draining {
		s.ln, s.done = ln, make(chan struct{})
		defer close(s.done)
	}
	s.mu.Unlock()
	defer ln.Close()
	d, canDrain := ln.(deadliner)
	// One deadline for the whole drain: an expired one fails Accept
	// before it looks at the backlog.
	startDrain := func() bool { return canDrain && d.SetDeadline(time.Now().Add(drainWait)) == nil }
	if draining {
		canDrain = startDrain()
	}
	for !draining || canDrain {
		conn, err := ln.Accept()
		if err == nil {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
			continue
		}
		if !s.closed.Load() {
			return err
		}
		if draining {
			break
		}
		draining, canDrain = true, startDrain()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	dec := NewDecoder(conn)
	for {
		m, err := dec.Decode()
		if err != nil {
			if errors.Is(err, ErrBadMessage) {
				continue // skip the bad frame, stay in sync by size
			}
			return // EOF or transport error: drop the connection
		}
		if m.Validate() != nil {
			continue
		}
		if s.Handler != nil {
			s.Handler(m)
		}
	}
}

// Close stops accepting, serves every connection the listener has
// already queued, and waits for in-flight connections to finish.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	ln, done := s.ln, s.done
	s.mu.Unlock()
	var err error
	if ln != nil {
		// Wake Serve's Accept. A listener with a deadline stays open
		// for Serve to drain; Serve closes it on return.
		if d, ok := ln.(deadliner); !ok || d.SetDeadline(time.Now()) != nil {
			err = ln.Close()
		}
		<-done
	}
	s.wg.Wait()
	return err
}

// Client sends MP messages over a transport connection.
type Client struct {
	conn net.Conn
	enc  *Encoder
}

// Dial connects to an MP server.
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, enc: NewEncoder(conn)}, nil
}

// Send transmits one message.
func (c *Client) Send(m Message) error { return c.enc.Encode(m) }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
