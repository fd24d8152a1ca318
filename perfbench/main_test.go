package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"aqua"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return s
}

// TestSmokeEveryWorkload runs every workload briefly, declared in
// BENCHMARK.json or not, untraced and traced, and checks that every declared
// metric is printed by name with its unit, on a "metric" line and in the
// final JSON line, and nothing else is.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := readSpec(t)
	for _, w := range s.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json declares %q: %v", w.Name, err)
		}
	}
	for _, w := range workloads {
		for trace, declared := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{s.EndToEnd, s.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.6",
					"--trace", strconv.Itoa(trace), "--spans-dir", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				text := out.String()
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(text, "\nmetric "+m.Name+" ") || !strings.Contains(text, " "+m.Unit+"\n") {
						t.Errorf("metric %s is not printed with its unit", m.Name)
					}
				}
				if !strings.HasPrefix(text, "env {") {
					t.Errorf("no environment stamp first")
				}
				// Reported beside the declared metrics, outside the result.
				for _, name := range []string{"fail_frac", "call_p99_us", "peak_heap_mb", "cpu_us_per_call"} {
					if trace == 0 && !strings.Contains(text, "\nmetric "+name+" ") {
						t.Errorf("%s is not printed", name)
					}
				}
				if trace == 0 && !w.closed() && !strings.Contains(text, "generator_lateness_us p50=") {
					t.Errorf("open loop run does not print generator lateness")
				}
			})
		}
	}
}

func TestCheckReplyRejectsForeignReplies(t *testing.T) {
	tok := makeToken(7, 99)
	other := makeToken(8, 99)
	echoW, _ := workloadByName("echo-inmem")
	if _, err := echoW.checkReply(tok, tok); err != nil {
		t.Fatalf("own echo rejected: %v", err)
	}
	if _, err := echoW.checkReply(tok, other); err == nil {
		t.Fatal("another call's echo accepted")
	}
	ord, _ := workloadByName("ordered-tcp")
	c := &counter{}
	reply, _ := c.Apply("op", tok)
	if n, err := ord.checkReply(tok, reply); err != nil || n != 1 {
		t.Fatalf("counter reply: n=%d err=%v", n, err)
	}
	if _, err := ord.checkReply(other, reply); err == nil {
		t.Fatal("counter reply for another call accepted")
	}
}

func TestClassifyCountsEveryError(t *testing.T) {
	cases := map[string]int{
		"core: dispatched unknown request 3":      classDispatchRace,
		"gateway: no response from [a] within 1s": classTimeout,
		"gateway: replica r1: boom":               classReplica,
		"something else":                          classOther,
	}
	for msg, want := range cases {
		if got := classify(errors.New(msg)); got != want {
			t.Errorf("%q: class %d, want %d", msg, got, want)
		}
	}
	if got := classify(fmt.Errorf("shed: %w", aqua.ErrOverloaded)); got != classShed {
		t.Errorf("shed: class %d", got)
	}
	if classify(nil) != classOK {
		t.Error("nil error is not ok")
	}
}
