package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
)

func fp(v float64) *float64 { return &v }

// appendEvent's bytes are json.Marshal's, for every shape an Event takes: the
// JSONL wire form is what stream clients and stores on disk already hold.
func TestAppendEventMatchesJSONMarshal(t *testing.T) {
	for _, ev := range []Event{
		{},
		{Seq: 3, Step: 3, Loss: 1.5},
		{Seq: math.MaxInt32, Step: -7, Loss: -0.25, Accuracy: fp(0.9375)},
		{Loss: 0.1, VNRatio: fp(12.5)},
		{Loss: 1e-6, Accuracy: fp(9.999999e-7), VNRatio: fp(1e21)},
		{Loss: 1e-7, Accuracy: fp(1e-9), VNRatio: fp(1e-10)},
		{Loss: 1e20, Accuracy: fp(999999999999999999999), VNRatio: fp(1.5e300)},
		{Loss: math.SmallestNonzeroFloat64, Accuracy: fp(math.MaxFloat64), VNRatio: fp(-math.MaxFloat64)},
		{Loss: math.Copysign(0, -1), Accuracy: fp(0), VNRatio: fp(-1e-300)},
		{Loss: 0.30000000000000004, Accuracy: fp(1.0 / 3), VNRatio: fp(123456789.125)},
		{Loss: 5e-324, Accuracy: fp(2.2250738585072014e-308)},
	} {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendEvent(nil, ev)
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendEvent = %s\njson.Marshal = %s", got, want)
		}
	}
	// What json.Marshal refuses, appendEvent refuses.
	for _, ev := range []Event{
		{Loss: math.NaN()},
		{Loss: math.Inf(1)},
		{Accuracy: fp(math.Inf(-1))},
		{VNRatio: fp(math.NaN())},
	} {
		if _, err := json.Marshal(ev); err == nil {
			t.Fatalf("json.Marshal accepted %+v", ev)
		}
		if _, err := appendEvent(nil, ev); err == nil {
			t.Errorf("appendEvent accepted a non-finite float: %+v", ev)
		}
	}
}

func FuzzAppendEvent(f *testing.F) {
	f.Add(0, 0, 0.5, 0.0, 0.0, false, false)
	f.Add(12, 12, 1e-7, 0.93, 41.0, true, true)
	f.Add(-1, 1<<40, -1e21, 1e-9, 5e-324, true, false)
	f.Add(7, 7, math.MaxFloat64, -0.0, 9.999999e-7, false, true)
	f.Fuzz(func(t *testing.T, seq, step int, loss, acc, vn float64, hasAcc, hasVN bool) {
		ev := Event{Seq: seq, Step: step, Loss: loss}
		if hasAcc {
			ev.Accuracy = &acc
		}
		if hasVN {
			ev.VNRatio = &vn
		}
		want, wantErr := json.Marshal(ev)
		got, err := appendEvent([]byte("prefix"), ev)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: appendEvent error %v, json.Marshal error %v", ev, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("appendEvent = %s\njson.Marshal = %s", got[len("prefix"):], want)
		}
	})
}

// An append retains its line and allocates nothing else: no encoder state,
// no intermediate buffer, and — with no stream following — no channel.
func TestEventLogAppendAllocatesOnlyTheLine(t *testing.T) {
	log, err := OpenEventLog(filepath.Join(t.TempDir(), "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	acc, vn := 0.875, 3.25
	step := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if err := log.Append(Event{Step: step, Loss: 0.5, Accuracy: &acc, VNRatio: &vn}); err != nil {
			t.Fatal(err)
		}
		step++
	})
	if allocs > 1 {
		t.Errorf("Append allocates %.0f times per event, want 1 (the retained line)", allocs)
	}
}

// The wake-up channel exists only between a Next that handed it out and the
// append (or close) that closes it.
func TestEventLogMakesChannelOnlyForFollowers(t *testing.T) {
	log, err := OpenEventLog(filepath.Join(t.TempDir(), "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for i := 0; i < 3; i++ {
		if err := log.Append(mkEvent(i)); err != nil {
			t.Fatal(err)
		}
		if log.changed != nil {
			t.Fatalf("append %d with no follower left a channel behind", i)
		}
	}
	_, first, _ := log.Next(3)
	if _, again, _ := log.Next(3); again != first {
		t.Error("two followers parked between appends got different channels")
	}
	if err := log.Append(mkEvent(3)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-first:
	default:
		t.Fatal("append did not close the channel Next handed out")
	}
	if _, next, _ := log.Next(4); next == first {
		t.Error("Next after the wake-up returned the closed channel")
	}
}
