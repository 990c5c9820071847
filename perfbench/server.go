package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one craftykv process, started on an ephemeral port.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	logDone chan struct{}
	logTail []string // last lines of the server's log, for error reports
}

// startServer starts craftykv with its default flags on an ephemeral port,
// at GOMAXPROCS=1, and waits until it answers a request. The caller must
// stop it, on every path.
func startServer(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// A benchmark killed mid-run must not leave its server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	// The server logs on every crash recovery, so its stderr is drained for
	// its whole life; a full pipe would stall it.
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if len(p.logTail) == 8 {
				p.logTail = p.logTail[1:]
			}
			p.logTail = append(p.logTail, line)
			if _, addr, ok := strings.Cut(line, " serving on "); ok {
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrc:
	case <-p.logDone:
		p.stop()
		return nil, fmt.Errorf("craftykv exited before serving: %s", strings.Join(p.logTail, " | "))
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, errors.New("craftykv did not start serving within 60s")
	}
	// Readiness probe: one round trip through the scheduler.
	ctl, err := dialCtl(p.addr)
	if err == nil {
		var reply string
		reply, err = ctl.do("LEN")
		if err == nil && reply != "LEN 0" {
			err = fmt.Errorf("readiness probe: LEN answered %q", reply)
		}
		ctl.close()
	}
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("craftykv readiness: %w", err)
	}
	return p, nil
}

// stop kills the server (it has no shutdown path) and reaps it.
func (p *serverProc) stop() {
	if p.cmd.ProcessState != nil {
		return
	}
	_ = p.cmd.Process.Kill() // fails only if the process already exited; Wait reaps either way
	<-p.logDone
	_ = p.cmd.Wait() // a killed process always reports the signal
}

// alive reports an error if the server has exited (for example after a
// panic inside a transaction): its log pipe reaches EOF only then.
func (p *serverProc) alive() error {
	select {
	case <-p.logDone:
		return fmt.Errorf("craftykv exited: %s", strings.Join(p.logTail, " | "))
	default:
		return nil
	}
}

// procStatusKB reads one "Name:   N kB" field of /proc/<pid>/status.
func procStatusKB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, field)
}

// peakRSSMB is a process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux configuration Go supports.
const clockTicks = 100

// procCPUSeconds is a process's user plus system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// hostCPUTicks reads the machine-wide CPU time of /proc/stat: the ticks
// the hypervisor stole from this virtual machine, and all ticks.
func hostCPUTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat starts with %q", line)
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already counted in user time.
		if i < 8 {
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total, nil
}

// stealMeter measures the share of the machine's CPU time the hypervisor
// stole over an interval: host load the program under test cannot cause.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t, _ := hostCPUTicks() // a machine without /proc/stat reads 0
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t, _ := hostCPUTicks()
	return ratio(s-m.steal, t-m.total)
}

// selfCPUSeconds is this process's user plus system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// ctlConn is a text-protocol connection for control commands: preload,
// INFO, SYNC, CRASH and the read-back.
type ctlConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialCtl(addr string) (*ctlConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &ctlConn{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriterSize(conn, 64<<10)}, nil
}

func (c *ctlConn) close() { c.conn.Close() }

// ctlTimeout bounds one control round trip, generously: a full-verify
// recovery takes about a second even at 100k keys.
const ctlTimeout = 60 * time.Second

// send writes one request line and flushes it.
func (c *ctlConn) send(req string) error {
	c.conn.SetDeadline(time.Now().Add(ctlTimeout))
	c.w.WriteString(req)
	c.w.WriteByte('\n')
	return c.w.Flush()
}

// do sends one request and reads its one-line reply.
func (c *ctlConn) do(req string) (string, error) {
	if err := c.send(req); err != nil {
		return "", fmt.Errorf("%s: %w", req, err)
	}
	line, err := readLine(c.r)
	if err != nil {
		return "", fmt.Errorf("%s: %w", req, err)
	}
	return line, nil
}

// info reads the server's instrument snapshot.
func (c *ctlConn) info() (snapshot, error) {
	if err := c.send("INFO"); err != nil {
		return nil, fmt.Errorf("INFO: %w", err)
	}
	return readInfo(c.r)
}

// pipeline sends n requests built by req, keeping up to depth in flight,
// and hands each reply's lines (linesPer of them) to check in order.
func (c *ctlConn) pipeline(n, depth, linesPer int, req func(i int, w *bufio.Writer), check func(i int, lines []string)) error {
	c.conn.SetDeadline(time.Now().Add(ctlTimeout))
	lines := make([]string, linesPer)
	sent := 0
	for got := 0; got < n; got++ {
		for sent < n && sent-got < depth {
			req(sent, c.w)
			c.w.WriteByte('\n')
			sent++
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		for j := range lines {
			line, err := readLine(c.r)
			if err != nil {
				return err
			}
			lines[j] = line
		}
		check(got, lines)
	}
	return nil
}
