//go:build !linux

package gasnet

func osYield() {}
