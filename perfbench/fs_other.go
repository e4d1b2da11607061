//go:build !linux

package main

func fsType(string) string { return "unknown" }
