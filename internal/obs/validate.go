package obs

import (
	"fmt"
	"net"
	"strconv"
	"time"
)

// ValidateOpsAddr rejects a malformed -ops listen address before the run
// starts, so a typo fails with a usage error instead of a late listen
// failure mid-campaign. Empty means "no ops server" and is always valid.
func ValidateOpsAddr(addr string) error {
	if addr == "" {
		return nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-ops %q: %v (want HOST:PORT or :PORT)", addr, err)
	}
	n, err := strconv.Atoi(port)
	if err != nil || n < 0 || n > 65535 {
		return fmt.Errorf("-ops %q: port %q must be a number in 0..65535", addr, port)
	}
	_ = host // empty host (":6060") binds all interfaces — fine
	return nil
}

// ValidateMetricsInterval rejects a zero or negative -metrics-interval,
// which would otherwise make the flight recorder's snapshot clock spin.
func ValidateMetricsInterval(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-metrics-interval %v: must be a positive duration", d)
	}
	return nil
}
