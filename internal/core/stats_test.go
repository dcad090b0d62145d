package core

import (
	"reflect"
	"testing"
)

// TestStatsSubCoversEveryField sets every field of Stats to a distinct
// value and checks Sub against the zero snapshot field by field: a field
// added to the struct and forgotten in Sub reads 0 here.
func TestStatsSubCoversEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is %s: Sub and this test know only int64 counters", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(1000 + i))
	}
	d := reflect.ValueOf(s.Sub(Stats{}))
	for i := 0; i < d.NumField(); i++ {
		if got, want := d.Field(i).Int(), int64(1000+i); got != want {
			t.Errorf("Sub drops Stats.%s: got %d, want %d", d.Type().Field(i).Name, got, want)
		}
	}
	if got := s.Sub(s); got != (Stats{}) {
		t.Errorf("s.Sub(s) = %+v, want zero", got)
	}
}
