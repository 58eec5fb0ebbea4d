//go:build !linux

package main

import "time"

// processCPU is unavailable off Linux; opClock then times by the wall
// clock alone.
func processCPU() time.Duration { return -1 }
