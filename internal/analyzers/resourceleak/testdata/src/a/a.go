// Package a exercises the path proofs: tickers, timers, files, and
// module Open* handles must release on every path.
package a

import (
	"errors"
	"os"
	"time"
)

func work()           {}
func cond() bool      { return false }
func sink(f *os.File) {}

// tickerLeak returns from inside the loop without stopping the ticker.
func tickerLeak(stopc chan struct{}) {
	t := time.NewTicker(time.Second) // want `time\.Ticker may reach a return without Stop`
	for {
		select {
		case <-stopc:
			return
		case <-t.C:
			work()
		}
	}
}

// tickerDefer is the idiomatic fix: one defer covers every path.
func tickerDefer(stopc chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stopc:
			return
		case <-t.C:
			work()
		}
	}
}

// tickerExplicit stops on both explicit paths.
func tickerExplicit() {
	t := time.NewTicker(time.Second)
	if cond() {
		t.Stop()
		return
	}
	work()
	t.Stop()
}

// tickerForever never returns: a loop with no exit holds its ticker by
// design and is not a leak (ctxflow owns the no-cancellation complaint).
func tickerForever() {
	t := time.NewTicker(time.Second)
	for {
		<-t.C
		work()
	}
}

// timerDrain releases the timer by receiving its fire.
func timerDrain() {
	tm := time.NewTimer(time.Second)
	<-tm.C
	work()
}

// timerLeak can return before the timer fires or is stopped.
func timerLeak(donec chan struct{}) {
	tm := time.NewTimer(time.Second) // want `time\.Timer may reach a return without Stop`
	select {
	case <-donec:
		return
	case <-tm.C:
	}
}

// fileGuarded is the canonical shape: the error-true arm carries no file.
func fileGuarded(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	work()
	return nil
}

// fileLeakMidway closes at the end but not on the early return.
func fileLeakMidway(path string) error {
	f, err := os.Open(path) // want `os\.File may reach a return without Close`
	if err != nil {
		return err
	}
	if cond() {
		return errors.New("midway")
	}
	f.Close()
	return nil
}

// fileEscapesReturn transfers ownership to the caller.
func fileEscapesReturn(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// fileEscapesArg hands the file to another owner.
func fileEscapesArg(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	sink(f)
}

// fileHolder owns a file through a field, like a store over its device.
type fileHolder struct {
	f *os.File
}

func (h *fileHolder) check() error { return nil }

// fileEscapesHolderField hands the file to the caller inside the returned
// struct; the error path closes it before dropping the holder.
func fileEscapesHolderField(path string) (*fileHolder, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	h := &fileHolder{f: f}
	if err := h.check(); err != nil {
		f.Close()
		return nil, err
	}
	return h, nil
}

// fileLeakHolderDropped parks the file in a struct that never leaves the
// function, so nothing closes it.
func fileLeakHolderDropped(path string) error {
	f, err := os.Open(path) // want `os\.File may reach a return without Close`
	if err != nil {
		return err
	}
	h := &fileHolder{f: f}
	return h.check()
}
