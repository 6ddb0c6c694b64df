//go:build !linux

package main

import "time"

func sleepPrecise(d time.Duration) { time.Sleep(d) }
