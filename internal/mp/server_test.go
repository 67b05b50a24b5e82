package mp

import (
	"bytes"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestServerOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The handler delivers into a channel so the test blocks on real
	// arrival instead of polling the wall clock.
	recv := make(chan Message, 16)
	srv := &Server{Handler: func(m Message) { recv <- m }}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	want := []Message{
		{Frequency: 500, Duration: 0.05, Intensity: 60},
		{Frequency: 900, Duration: 0.03, Intensity: 45},
	}
	for _, m := range want {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	timeout := time.After(10 * time.Second)
	for i, w := range want {
		select {
		case m := <-recv:
			if m != w {
				t.Errorf("msg %d = %+v, want %+v", i, m, w)
			}
		case <-timeout:
			t.Fatalf("received %d of %d messages", i, len(want))
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
}

func TestServerSkipsInvalidMessages(t *testing.T) {
	server, client := net.Pipe()
	var mu sync.Mutex
	var got []Message
	srv := &Server{Handler: func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.serveConn(server)
	}()

	// Invalid (negative frequency) then valid: raw writes bypass the
	// encoder's validation.
	if _, err := client.Write(Marshal(Message{Frequency: -1, Duration: 1, Intensity: 1})); err != nil {
		t.Fatal(err)
	}
	valid := Message{Frequency: 440, Duration: 0.1, Intensity: 55}
	if _, err := client.Write(Marshal(valid)); err != nil {
		t.Fatal(err)
	}
	client.Close()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != valid {
		t.Errorf("got = %+v, want only the valid message", got)
	}
}

func TestClientOverPipe(t *testing.T) {
	server, client := net.Pipe()
	c := NewClient(client)
	go func() {
		_ = c.Send(Message{Frequency: 440, Duration: 0.1, Intensity: 60})
		c.Close()
	}()
	msgs, err := ReadAll(server)
	if err != nil && err.Error() != "io: read/write on closed pipe" {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Frequency != 440 {
		t.Errorf("msgs = %+v", msgs)
	}
}

// backlogListener is a listener whose accept backlog the test
// controls. Queued connections wait until an Accept takes them, as in
// a kernel accept queue, and Accept honours SetDeadline the way a TCP
// listener does: an expired deadline fails it before the backlog is
// consulted.
type backlogListener struct {
	mu       sync.Mutex
	queue    []net.Conn
	deadline time.Time
	closed   bool
	wake     chan struct{} // closed and replaced on a deadline or close
	blocked  chan struct{} // signalled when Accept waits on an empty backlog
}

func newBacklogListener() *backlogListener {
	return &backlogListener{wake: make(chan struct{}), blocked: make(chan struct{}, 1)}
}

// enqueue queues connections without waking a blocked Accept: the
// kernel has completed them, but Serve has not yet been scheduled.
func (l *backlogListener) enqueue(conns ...net.Conn) {
	l.mu.Lock()
	l.queue = append(l.queue, conns...)
	l.mu.Unlock()
}

// arrive queues a connection and wakes a blocked Accept, as a new
// connection reaching a kernel accept queue does.
func (l *backlogListener) arrive(c net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queue = append(l.queue, c)
	close(l.wake)
	l.wake = make(chan struct{})
}

func (l *backlogListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	for {
		switch {
		case l.closed:
			l.mu.Unlock()
			return nil, net.ErrClosed
		case !l.deadline.IsZero() && !time.Now().Before(l.deadline):
			l.mu.Unlock()
			return nil, os.ErrDeadlineExceeded
		case len(l.queue) > 0:
			c := l.queue[0]
			l.queue = l.queue[1:]
			l.mu.Unlock()
			return c, nil
		}
		wake := l.wake
		var expiry <-chan time.Time
		if !l.deadline.IsZero() {
			expiry = time.After(time.Until(l.deadline))
		}
		l.mu.Unlock()
		select {
		case l.blocked <- struct{}{}:
		default:
		}
		select {
		case <-wake:
		case <-expiry:
		}
		l.mu.Lock()
	}
}

func (l *backlogListener) SetDeadline(t time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.deadline = t
	close(l.wake)
	l.wake = make(chan struct{})
	return nil
}

func (l *backlogListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.wake)
	}
	return nil
}

func (l *backlogListener) Addr() net.Addr { return &net.TCPAddr{} }

// dataConn is an accepted connection whose peer has written its
// messages and hung up. Only Read and Close are used.
type dataConn struct {
	net.Conn
	r *bytes.Reader
}

func (c *dataConn) Read(b []byte) (int, error) { return c.r.Read(b) }
func (c *dataConn) Close() error               { return nil }

func queuedConns(msgs ...Message) []net.Conn {
	var out []net.Conn
	for _, m := range msgs {
		out = append(out, &dataConn{r: bytes.NewReader(Marshal(m))})
	}
	return out
}

// TestServerCloseServesAcceptBacklog: connections the listener has
// already queued when Close runs are served before Close returns,
// whether Serve is blocked in Accept or has not started yet.
func TestServerCloseServesAcceptBacklog(t *testing.T) {
	msgs := []Message{
		{Frequency: 400, Duration: 0.065, Intensity: 60},
		{Frequency: 480, Duration: 0.065, Intensity: 60},
	}
	newServer := func() (*Server, func() int) {
		var mu sync.Mutex
		n := 0
		srv := &Server{Handler: func(Message) {
			mu.Lock()
			n++
			mu.Unlock()
		}}
		return srv, func() int {
			mu.Lock()
			defer mu.Unlock()
			return n
		}
	}

	t.Run("serving", func(t *testing.T) {
		ln := newBacklogListener()
		srv, served := newServer()
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		<-ln.blocked
		ln.enqueue(queuedConns(msgs...)...)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if got := served(); got != len(msgs) {
			t.Errorf("served %d of %d queued messages before Close returned", got, len(msgs))
		}
		if err := <-done; err != nil {
			t.Errorf("Serve = %v after Close", err)
		}
	})

	// A client that keeps connecting after Close must not hold the
	// drain open: Close returns while connections still arrive.
	t.Run("connecting after close", func(t *testing.T) {
		ln := newBacklogListener()
		srv, _ := newServer()
		go srv.Serve(ln)
		<-ln.blocked
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					ln.arrive(queuedConns(msgs[0])[0])
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return while clients kept connecting")
		}
	})

	t.Run("closed before serve", func(t *testing.T) {
		ln := newBacklogListener()
		ln.enqueue(queuedConns(msgs...)...)
		srv, served := newServer()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(ln); err != nil {
			t.Fatalf("Serve after Close = %v", err)
		}
		if got := served(); got != len(msgs) {
			t.Errorf("served %d of %d queued messages", got, len(msgs))
		}
		if _, err := ln.Accept(); err == nil {
			t.Error("listener still accepting after Serve returned")
		}
	})
}
