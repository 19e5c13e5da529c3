package experiments

import "strconv"

func itoa(v int) string { return strconv.Itoa(v) }

func i64toa(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
