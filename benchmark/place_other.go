//go:build !linux

package main

import "errors"

func confine() (int, error) { return -1, errors.New("binding to a CPU is implemented on Linux only") }
