package faults

import (
	"fmt"
	"os"
)

// On-disk corruption injection: flip bits in files that are already
// written and closed, simulating silent media decay (a misdirected
// write, a rotted sector) rather than an erroring disk. The read path
// must detect the damage by checksum and surface a typed error — never
// serve the flipped bytes as data.

// FlipBit XORs one bit in the file at path: the byte at offset gets bit
// (0-7) inverted in place. Offsets are from the start of the file.
func FlipBit(path string, offset int64, bit uint) error {
	if bit > 7 {
		return fmt.Errorf("faults: bit %d out of range", bit)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return fmt.Errorf("faults: read byte to flip: %w", err)
	}
	b[0] ^= 1 << bit
	if _, err := f.WriteAt(b[:], offset); err != nil {
		return fmt.Errorf("faults: write flipped byte: %w", err)
	}
	return nil
}
