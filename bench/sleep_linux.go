package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling thread in nanosleep(2). The runtime's
// own timers wake through the network poller, whose epoll timeout has
// millisecond resolution, so time.Sleep overshoots a sub-millisecond
// remainder by up to a millisecond — as much as a whole request's
// latency here.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}
