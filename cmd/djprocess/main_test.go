package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A background job of a non-interactive shell starts with SIGINT
// ignored. An interrupt sent to such a djprocess while its run is still
// going must end the -listen-linger wait once the run finishes, not be
// lost and leave the endpoint serving forever.
func TestLingerEndsOnInterruptDuringRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the djprocess binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "djprocess")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building djprocess: %v\n%s", err, out)
	}
	cmd := exec.Command("sh", "-c", `trap "" INT; exec "$0" "$@"`, bin,
		"-builtin", "minimal-clean", "-input", "hub:web-en?docs=20000&seed=1",
		"-listen", "127.0.0.1:0", "-listen-linger", "-no-journal")
	cmd.Env = append(os.Environ(), "DJ_WORK_DIR="+filepath.Join(dir, "work"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The run_start line is printed once the handler is in place and the
	// input is loaded, so the interrupt lands while the ops run.
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	started := time.After(2 * time.Minute)
	for running := false; !running; {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("djprocess exited before its run started")
			}
			if strings.Contains(line, "processed:") {
				t.Fatal("run finished before the interrupt could be sent; enlarge the input")
			}
			running = strings.Contains(line, "[batch]")
		case <-started:
			t.Fatal("djprocess did not start its run")
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for range lines {
		}
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("djprocess exited with %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("djprocess kept lingering after an interrupt sent during its run")
	}
}
