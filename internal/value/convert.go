package value

import "fmt"

// FromGo converts a Go scalar — a Value, string, int, int64 or bool — to a
// DBPL value: the argument types the session API accepts, embedded and
// remote.
func FromGo(a any) (Value, error) {
	switch v := a.(type) {
	case Value:
		return v, nil
	case string:
		return Str(v), nil
	case int:
		return Int(int64(v)), nil
	case int64:
		return Int(v), nil
	case bool:
		return Bool(v), nil
	default:
		return Value{}, fmt.Errorf("dbpl: unsupported argument type %T", a)
	}
}

// Scan copies the tuple's values into dest, which must hold one pointer per
// attribute: *string, *int, *int64, *bool, *Value, or *any. A *any
// destination receives the Go-native form of the scalar — string, int64, or
// bool. cols names the attributes in error messages. A nil tuple is a cursor
// that has not been advanced. It is the one implementation behind the
// embedded and the remote Rows.Scan.
func (t Tuple) Scan(cols []string, dest []any) error {
	if t == nil {
		return fmt.Errorf("dbpl: Scan called without a successful Next")
	}
	if len(dest) != len(t) {
		return fmt.Errorf("dbpl: Scan expected %d destination(s), got %d", len(t), len(dest))
	}
	for i, d := range dest {
		v := t[i]
		switch p := d.(type) {
		case *Value:
			*p = v
		case *any:
			switch v.Kind() {
			case KindString:
				*p = v.AsString()
			case KindInt:
				*p = v.AsInt()
			case KindBool:
				*p = v.AsBool()
			default:
				return fmt.Errorf("dbpl: Scan column %q: cannot scan %s value into *any", cols[i], v.Kind())
			}
		case *string:
			if v.Kind() != KindString {
				return fmt.Errorf("dbpl: Scan column %q: cannot scan %s into *string", cols[i], v.Kind())
			}
			*p = v.AsString()
		case *int64:
			if v.Kind() != KindInt {
				return fmt.Errorf("dbpl: Scan column %q: cannot scan %s into *int64", cols[i], v.Kind())
			}
			*p = v.AsInt()
		case *int:
			if v.Kind() != KindInt {
				return fmt.Errorf("dbpl: Scan column %q: cannot scan %s into *int", cols[i], v.Kind())
			}
			*p = int(v.AsInt())
		case *bool:
			if v.Kind() != KindBool {
				return fmt.Errorf("dbpl: Scan column %q: cannot scan %s into *bool", cols[i], v.Kind())
			}
			*p = v.AsBool()
		default:
			return fmt.Errorf("dbpl: Scan column %q: unsupported destination type %T", cols[i], d)
		}
	}
	return nil
}
