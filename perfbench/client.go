package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// transport sends one encoded request line and returns its reply line
// (without the trailing newline) and an HTTP-style status (200 on the
// pipe, which has no status of its own).
type transport interface {
	call(id int64, line []byte) (reply []byte, status int, err error)
}

// outcome classifies a reply: answered, failed, or refused by admission.
type outcome uint8

const (
	outOK outcome = iota
	outFailed
	outRejected
)

// classify reads the reply envelope. An admission fast-reject is a 429 on
// HTTP and an error reply naming the overload on the pipe.
func classify(reply []byte, status int, err error) outcome {
	if err != nil {
		return outFailed
	}
	if status == http.StatusTooManyRequests {
		return outRejected
	}
	var env struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if json.Unmarshal(reply, &env) != nil {
		return outFailed
	}
	switch {
	case env.OK:
		return outOK
	case strings.Contains(env.Error, "overloaded"):
		return outRejected
	}
	return outFailed
}

// pipeTransport multiplexes concurrent calls over afserve's stdin/stdout:
// requests carry unique ids, replies (which -j > 1 may reorder) are
// routed back to their caller by id.
type pipeTransport struct {
	wmu sync.Mutex
	w   *bufio.Writer

	mu      sync.Mutex
	waiters map[int64]chan []byte
	err     error // set once the reply stream ends

	done chan struct{} // closed when the reader goroutine exits
}

func newPipeTransport(stdin io.Writer, stdout io.Reader) *pipeTransport {
	p := &pipeTransport{
		w:       bufio.NewWriter(stdin),
		waiters: make(map[int64]chan []byte),
		done:    make(chan struct{}),
	}
	go p.readLoop(bufio.NewReaderSize(stdout, 1<<20))
	return p
}

func (p *pipeTransport) call(id int64, line []byte) ([]byte, int, error) {
	ch := make(chan []byte, 1)
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return nil, 0, err
	}
	if _, dup := p.waiters[id]; dup {
		p.mu.Unlock()
		return nil, 0, fmt.Errorf("request id %d already in flight", id)
	}
	p.waiters[id] = ch
	p.mu.Unlock()

	p.wmu.Lock()
	_, err := p.w.Write(line)
	if err == nil {
		err = p.w.WriteByte('\n')
	}
	if err == nil {
		err = p.w.Flush()
	}
	p.wmu.Unlock()
	if err != nil {
		p.mu.Lock()
		delete(p.waiters, id)
		p.mu.Unlock()
		return nil, 0, fmt.Errorf("writing request %d: %w", id, err)
	}
	reply, ok := <-ch
	if !ok {
		p.mu.Lock()
		err := p.err
		p.mu.Unlock()
		return nil, 0, err
	}
	return reply, http.StatusOK, nil
}

func (p *pipeTransport) readLoop(br *bufio.Reader) {
	defer close(p.done)
	fail := func(err error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.err == nil {
			p.err = err
		}
		for id, ch := range p.waiters {
			close(ch)
			delete(p.waiters, id)
		}
	}
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = errors.New("afserve closed its reply stream")
			}
			fail(err)
			return
		}
		line = bytes.TrimRight(line, "\n")
		id, ok := replyID(line)
		p.mu.Lock()
		ch := p.waiters[id]
		delete(p.waiters, id)
		p.mu.Unlock()
		if !ok || ch == nil {
			fail(fmt.Errorf("unmatched reply %.120q", line))
			return
		}
		ch <- line
	}
}

// replyID extracts the id from a reply envelope, which the protocol
// always writes first: {"id":N,...}.
func replyID(line []byte) (int64, bool) {
	const prefix = `{"id":`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return 0, false
	}
	rest := line[len(prefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	id, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	return id, err == nil
}

// httpTransport posts single-request bodies to /v1/query over at most
// conns keep-alive connections; callers beyond that wait for a free
// connection, which counts toward their latency.
type httpTransport struct {
	c   *http.Client
	url string
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

func (h *httpTransport) call(id int64, line []byte) ([]byte, int, error) {
	resp, err := h.c.Post(h.url, "application/x-ndjson", bytes.NewReader(line))
	if err != nil {
		return nil, 0, fmt.Errorf("request %d: %w", id, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("request %d: reading reply: %w", id, err)
	}
	return bytes.TrimRight(body, "\n"), resp.StatusCode, nil
}

// proc is one child process the benchmark started. Every proc is
// registered so an error path or a signal can still stop it.
type proc struct {
	cmd    *exec.Cmd
	reader *pipeTransport // afserve's reply reader, drained before Wait
	once   sync.Once
}

var children struct {
	mu   sync.Mutex
	list []*proc
}

func startProc(cmd *exec.Cmd) (*proc, error) {
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", cmd.Path, err)
	}
	p := &proc{cmd: cmd}
	children.mu.Lock()
	children.list = append(children.list, p)
	children.mu.Unlock()
	return p, nil
}

// stop kills the process and waits until it and its reply reader have
// exited. Safe to call more than once.
func (p *proc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill() // an already-exited process is fine
		if p.reader != nil {
			<-p.reader.done
		}
		_ = p.cmd.Wait() // the exit status of a killed child is expected
	})
}

// stopChildren stops every process the benchmark started.
func stopChildren() {
	children.mu.Lock()
	list := children.list
	children.list = nil
	children.mu.Unlock()
	for _, p := range list {
		p.stop()
	}
}

// procCPU returns the user+system CPU time the process has used, read
// from /proc/<pid>/stat (clock ticks of 1/100 s, Linux's USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakRSS returns the process's VmHWM (peak resident set) in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
