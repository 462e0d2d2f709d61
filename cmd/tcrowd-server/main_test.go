package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestHTTPServerEdgeBounds pins the connection bounds: header reads and
// idle keep-alives are limited, while whole-request read and write
// deadlines stay off so long-lived responses (SSE watch streams,
// long-polls) are never cut.
func TestHTTPServerEdgeBounds(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("edge bounds: header %v idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatal("edge bounds must be positive")
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("read/write deadlines set (%v, %v): they would cut watch streams", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// TestHTTPServerDropsStalledHeaders drives the bounds over a socket, with
// the header timeout shortened for the test: a client that stops
// mid-headers is disconnected, while a response streaming for longer than
// that timeout is delivered whole.
func TestHTTPServerDropsStalledHeaders(t *testing.T) {
	const stream = 300 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		f := w.(http.Flusher)
		for i := 0; i < 6; i++ {
			io.WriteString(w, "tick\n")
			f.Flush()
			time.Sleep(stream / 6)
		}
	})
	srv := newHTTPServer("127.0.0.1:0", mux)
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /stream HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled-header connection not closed by the server: %v", err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if strings.TrimSpace(sc.Text()) == "tick" {
			lines++
		}
	}
	if lines != 6 {
		t.Fatalf("long response cut after %d of 6 chunks", lines)
	}
}
